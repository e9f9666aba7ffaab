package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/cluster"
	"tsperr/internal/core"
)

// fakeCluster scripts the coordinator surface so the server's routing and
// readiness logic is tested without real peers.
type fakeCluster struct {
	route    string
	proxyRep *core.Report
	proxyErr error
	ready    bool
	healthy  int
	quorum   int
	statuses []cluster.PeerStatus
	stats    cluster.Stats

	proxyCalls atomic.Int64
	// proxyBody is the body of the last ProxyEstimate call, written before
	// proxyCalls counts the call so a test that loads the count first may
	// read it.
	proxyBody []byte
}

func (f *fakeCluster) Route(string) string { return f.route }

func (f *fakeCluster) ProxyEstimate(_ context.Context, _ string, body []byte) (*core.Report, error) {
	f.proxyBody = body
	f.proxyCalls.Add(1)
	return f.proxyRep, f.proxyErr
}

func (f *fakeCluster) Ready() bool                        { return f.ready }
func (f *fakeCluster) HealthyPeers() int                  { return f.healthy }
func (f *fakeCluster) Quorum() int                        { return f.quorum }
func (f *fakeCluster) PeerStatuses() []cluster.PeerStatus { return f.statuses }
func (f *fakeCluster) Stats() cluster.Stats               { return f.stats }

func TestReadyzGatesOnWarmthAndQuorum(t *testing.T) {
	ctx := context.Background()
	fc := &fakeCluster{ready: false, healthy: 0, quorum: 1}
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		Cluster: fc,
	}
	_, ts := newTestServer(t, ctx, cfg)
	get := func() (int, readyResponse) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr readyResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}
	code, rr := get()
	if code != http.StatusServiceUnavailable || rr.Status != "unready" || !rr.Warm {
		t.Fatalf("below quorum: got %d %+v; want 503 unready with warm=true", code, rr)
	}
	fc.ready, fc.healthy = true, 2
	code, rr = get()
	if code != http.StatusOK || rr.Status != "ready" || rr.HealthyPeers != 2 {
		t.Fatalf("at quorum: got %d %+v; want 200 ready", code, rr)
	}
}

func TestReadyzWithoutClusterTracksWarmth(t *testing.T) {
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Abort)
	ready := func() int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if code := ready(); code != http.StatusServiceUnavailable {
		t.Fatalf("cold /readyz: got %d, want 503", code)
	}
	s.SetReady()
	if code := ready(); code != http.StatusOK {
		t.Fatalf("warm /readyz: got %d, want 200", code)
	}
}

// clusterEstimates are the request bodies the routing tests run, one subtest
// each: a plain estimate, an operating-point override and a Monte Carlo
// validation, which all route alike.
var clusterEstimates = []struct{ name, body string }{
	{"estimate", `{"benchmark":"typeset"}`},
	{"oppoint", `{"benchmark":"typeset","voltage":0.95,"freq_ratio":1.1}`},
	{"mc_trials", `{"benchmark":"typeset","mc_trials":400}`},
}

// countingConfig attaches fc to a config whose two local entry points, the
// default point and operating-point overrides, count their calls in calls.
func countingConfig(fc *fakeCluster, calls *atomic.Int64) Config {
	analyze := func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
		calls.Add(1)
		return fakeReport(b), nil
	}
	return Config{
		Analyze: analyze,
		AnalyzeAt: func(ctx context.Context, b string, n int, o core.AnalyzeOpts, _ cell.OperatingCondition, _ float64) (*core.Report, error) {
			return analyze(ctx, b, n, o)
		},
		Cluster: fc,
	}
}

func TestEstimateRoutesToOwningPeer(t *testing.T) {
	ctx := context.Background()
	for _, tc := range clusterEstimates {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.body
			var analyzeCalls atomic.Int64
			fc := &fakeCluster{route: "http://peer-1", proxyRep: fakeReport("routed")}
			_, ts := newTestServer(t, ctx, countingConfig(fc, &analyzeCalls))
			code, body, err := postEstimate(ctx, ts.URL, req)
			if err != nil || code != http.StatusOK {
				t.Fatalf("%s: routed estimate: %d %v", req, code, err)
			}
			rep := body["report"].(map[string]any)
			if rep["name"] != "routed" {
				t.Fatalf("%s: got report %v, want the peer's", req, rep["name"])
			}
			if fc.proxyCalls.Load() != 1 || analyzeCalls.Load() != 0 {
				t.Fatalf("%s: proxy=%d analyze=%d; want the peer to answer and local to stay idle",
					req, fc.proxyCalls.Load(), analyzeCalls.Load())
			}
			// The proxied body carries every field of the request, so the owner
			// computes the same report under the same key.
			var sent, proxied map[string]any
			if err := json.Unmarshal([]byte(req), &sent); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(fc.proxyBody, &proxied); err != nil {
				t.Fatalf("%s: proxied body %s: %v", req, fc.proxyBody, err)
			}
			for k, v := range sent {
				if proxied[k] != v {
					t.Errorf("%s: proxied body %s has %s = %v, want %v", req, fc.proxyBody, k, proxied[k], v)
				}
			}
		})
	}
}

func TestForwardedEstimateNeverReRoutes(t *testing.T) {
	ctx := context.Background()
	fc := &fakeCluster{route: "http://peer-1", proxyRep: fakeReport("routed")}
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		Cluster: fc,
	}
	_, ts := newTestServer(t, ctx, cfg)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"benchmark":"typeset"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderForwarded, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded estimate: %d %v", resp.StatusCode, body)
	}
	if rep := body["report"].(map[string]any); rep["name"] != "typeset" {
		t.Fatalf("forwarded request answered with %v, want local execution", rep["name"])
	}
	if fc.proxyCalls.Load() != 0 {
		t.Fatal("forwarded request was routed onward; mesh loops are possible")
	}
}

func TestProxyFailureFallsBackToLocal(t *testing.T) {
	ctx := context.Background()
	for _, tc := range clusterEstimates {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.body
			var analyzeCalls atomic.Int64
			fc := &fakeCluster{route: "http://peer-1", proxyErr: io.ErrUnexpectedEOF}
			_, ts := newTestServer(t, ctx, countingConfig(fc, &analyzeCalls))
			code, body, err := postEstimate(ctx, ts.URL, req)
			if err != nil || code != http.StatusOK {
				t.Fatalf("%s: fallback estimate: %d %v", req, code, err)
			}
			if rep := body["report"].(map[string]any); rep["name"] != "typeset" {
				t.Fatalf("%s: fallback answered with %v, want the local report", req, rep["name"])
			}
			if fc.proxyCalls.Load() != 1 || analyzeCalls.Load() != 1 {
				t.Fatalf("%s: proxy=%d analyze=%d; want one failed proxy, then local execution",
					req, fc.proxyCalls.Load(), analyzeCalls.Load())
			}
		})
	}
}

func TestEstimateRejectsForeignFingerprint(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		Fingerprint: "model-A",
	}
	_, ts := newTestServer(t, ctx, cfg)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"benchmark":"typeset"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderFingerprint, "model-B")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign fingerprint: %d, want 409", resp.StatusCode)
	}
}

func TestMetricsRenderClusterSection(t *testing.T) {
	ctx := context.Background()
	fc := &fakeCluster{
		ready:   true,
		healthy: 1,
		quorum:  1,
		statuses: []cluster.PeerStatus{
			{Addr: "http://peer-1", Healthy: true},
			{Addr: "http://peer-2", Healthy: false},
		},
		stats: cluster.Stats{ProxiedEstimates: 2, ProxyFallbacks: 1},
	}
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		Cluster: fc,
	}
	_, ts := newTestServer(t, ctx, cfg)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"tsperrd_cluster_proxied_estimates_total 2",
		"tsperrd_cluster_proxy_fallbacks_total 1",
		"tsperrd_cluster_quorum 1",
		`tsperrd_peer_healthy{peer="http://peer-1"} 1`,
		`tsperrd_peer_healthy{peer="http://peer-2"} 0`,
		`tsperrd_requests_total{endpoint="readyz"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
