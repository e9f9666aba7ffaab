package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/cluster"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/montecarlo"
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
	mcCalls    atomic.Int64
}

func (f *fakeCluster) Route(string) string { return f.route }

func (f *fakeCluster) ProxyEstimate(context.Context, string, []byte) (*core.Report, error) {
	f.proxyCalls.Add(1)
	return f.proxyRep, f.proxyErr
}

func (f *fakeCluster) MCRun(ctx context.Context, job core.MCJob) (*montecarlo.ShardedResult, error) {
	f.mcCalls.Add(1)
	return montecarlo.RunSharded(ctx, job.Spec, job.Shard)
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

// clusterEstimates are the request bodies the routing tests run: a plain
// estimate and an operating-point override, which route alike.
var clusterEstimates = []string{
	`{"benchmark":"typeset"}`,
	`{"benchmark":"typeset","voltage":0.95,"freq_ratio":1.1}`,
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
	for _, req := range clusterEstimates {
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
	for _, req := range clusterEstimates {
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
	}
}

func TestMCTrialsFanOutThroughCluster(t *testing.T) {
	ctx := context.Background()
	fc := &fakeCluster{route: "http://peer-1"}
	spec := chunkTestSpec(t)
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			if o.MCRun == nil {
				t.Error("MCTrials request reached Analyze without the cluster runner")
				return fakeReport(b), nil
			}
			job := core.MCJob{Benchmark: b, Scenarios: n, ChunkSize: 16, Spec: spec}
			job.Spec.Trials, job.Spec.Seed = o.MCTrials, 1
			if _, err := o.MCRun(ctx, job); err != nil {
				return nil, err
			}
			return fakeReport(b), nil
		},
		Cluster: fc,
		Limits:  Limits{MaxMCTrials: 64},
	}
	_, ts := newTestServer(t, ctx, cfg)
	code, _, err := postEstimate(ctx, ts.URL, `{"benchmark":"typeset","mc_trials":32}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("mc estimate: %d %v", code, err)
	}
	if fc.mcCalls.Load() != 1 {
		t.Fatalf("cluster MCRun called %d times, want 1", fc.mcCalls.Load())
	}
	if fc.proxyCalls.Load() != 0 {
		t.Fatal("MCTrials request was proxied whole instead of fanning out chunks")
	}
}

// chunkTestSpec builds a minimal valid Monte Carlo spec for chunk-endpoint
// tests.
func chunkTestSpec(t *testing.T) montecarlo.Spec {
	t.Helper()
	p, err := isa.Assemble("chunkfix", "\tli r1, 2\nloop:\n\taddi r1, r1, -1\n\tbne r1, r0, loop\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Insts)
	cond := &errormodel.Conditionals{PC: make([]float64, n), PE: make([]float64, n)}
	for i := range cond.PC {
		cond.PC[i] = 0.01
		cond.PE[i] = 0.02
	}
	return montecarlo.Spec{Prog: p, Cond: []*errormodel.Conditionals{cond}}
}

func TestClusterChunkEndpointExecutesChunks(t *testing.T) {
	ctx := context.Background()
	spec := chunkTestSpec(t)
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		Fingerprint: "model-A",
		ChunkSource: func(ctx context.Context, benchmark string, scenarios int) (montecarlo.Spec, error) {
			if benchmark != "chunkfix" {
				return montecarlo.Spec{}, errors.New("unknown benchmark")
			}
			return spec, nil
		},
	}
	_, ts := newTestServer(t, ctx, cfg)
	post := func(body, fingerprint string) (*http.Response, []byte) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/cluster/chunk", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint != "" {
			req.Header.Set(cluster.HeaderFingerprint, fingerprint)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	resp, raw := post(`{"benchmark":"chunkfix","scenarios":1,"trials":40,"seed":9,"chunk_size":16,"index":1}`, "model-A")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk request: %d %s", resp.StatusCode, raw)
	}
	var got montecarlo.ChunkResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	refSpec := spec
	refSpec.Trials, refSpec.Seed = 40, 9
	want, err := montecarlo.RunChunk(ctx, refSpec, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != want.Index || len(got.Counts) != len(want.Counts) {
		t.Fatalf("chunk shape: got index %d/%d counts, want %d/%d", got.Index, len(got.Counts), want.Index, len(want.Counts))
	}
	for i := range got.Counts {
		//tsperrlint:ignore floatcmp the worker's chunk must be bit-identical to a local execution
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("count %d: got %v, want %v", i, got.Counts[i], want.Counts[i])
		}
	}

	if resp, raw = post(`{"benchmark":"chunkfix","scenarios":1,"trials":40,"seed":9,"chunk_size":16,"index":0}`, "model-B"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("fingerprint mismatch: %d %s, want 409", resp.StatusCode, raw)
	}
	if resp, raw = post(`{"benchmark":"nope","scenarios":1,"trials":40,"seed":9,"chunk_size":16,"index":0}`, "model-A"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: %d %s, want 400", resp.StatusCode, raw)
	}
	if resp, raw = post(`{"benchmark":`, "model-A"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d %s, want 400", resp.StatusCode, raw)
	}
	if resp, raw = post(`{"benchmark":"chunkfix","scenarios":1,"trials":0,"seed":9,"chunk_size":16,"index":0}`, "model-A"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid trial budget: %d %s, want 400", resp.StatusCode, raw)
	}
}

func TestChunkEndpointAbsentWithoutSource(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
	}
	_, ts := newTestServer(t, ctx, cfg)
	resp, err := http.Post(ts.URL+"/v1/cluster/chunk", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("worker endpoint on a non-worker node: %d, want 404", resp.StatusCode)
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
		stats: cluster.Stats{RemoteChunks: 3, StolenChunks: 1, ProxiedEstimates: 2},
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
		"tsperrd_cluster_remote_chunks_total 3",
		"tsperrd_cluster_stolen_chunks_total 1",
		"tsperrd_cluster_proxied_estimates_total 2",
		"tsperrd_cluster_quorum 1",
		`tsperrd_peer_healthy{peer="http://peer-1"} 1`,
		`tsperrd_peer_healthy{peer="http://peer-2"} 0`,
		`tsperrd_requests_total{endpoint="readyz"}`,
		`tsperrd_requests_total{endpoint="cluster_chunk"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
