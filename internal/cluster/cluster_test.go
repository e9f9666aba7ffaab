// The routing suite: the ring, health probes, route spill and the estimate
// proxy. Routing is a scheduling decision and must never be a semantic one,
// so every path that loses a peer ends in local execution.
package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/core"
	"tsperr/internal/retry"
)

// testPeer is a fake peer daemon: /healthz liveness with a kill switch.
type testPeer struct {
	srv *httptest.Server
	// killed drops every connection, emulating a dead process.
	killed atomic.Bool
}

func newTestPeer(t *testing.T) *testPeer {
	t.Helper()
	p := &testPeer{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if p.killed.Load() {
			panic(http.ErrAbortHandler)
		}
		rw.WriteHeader(http.StatusOK)
		io.WriteString(rw, `{"status":"ok"}`)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

// newTestCoordinator builds a probed coordinator over the peers.
func newTestCoordinator(t *testing.T, cfg Config, peers ...*testPeer) *Coordinator {
	t.Helper()
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, p.srv.URL)
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	c := New(cfg)
	c.ProbeOnce(context.Background())
	return c
}

// testKeys are request keys spread over the ring.
func testKeys() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "key-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
	}
	return keys
}

func TestRingOwnersCoverAllMembersDeterministically(t *testing.T) {
	members := []string{"", "http://a", "http://b", "http://c"}
	r1, r2 := newRing(members), newRing(members)
	firsts := map[string]bool{}
	for _, key := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"} {
		o1, o2 := r1.owners(key), r2.owners(key)
		if len(o1) != len(members) {
			t.Fatalf("owners(%q) returned %d members, want %d", key, len(o1), len(members))
		}
		seen := map[string]bool{}
		for i, m := range o1 {
			if seen[m] {
				t.Fatalf("owners(%q) repeats member %q", key, m)
			}
			seen[m] = true
			if o2[i] != m {
				t.Fatalf("owners(%q) not deterministic: %v vs %v", key, o1, o2)
			}
		}
		firsts[o1[0]] = true
	}
	if len(firsts) < 2 {
		t.Fatalf("8 keys all landed on one member %v; ring is not spreading", firsts)
	}
}

func TestRouteSpillsOnlyTheUnhealthyOwnersKeys(t *testing.T) {
	wa := newTestPeer(t)
	wb := newTestPeer(t)
	c := newTestCoordinator(t, Config{}, wa, wb)
	keys := testKeys()
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = c.Route(k)
	}
	c.markPeer(c.peerByAddr(wa.srv.URL), false, nil)
	for i, k := range keys {
		after := c.Route(k)
		switch {
		case before[i] == wa.srv.URL:
			if after == wa.srv.URL {
				t.Fatalf("key %q still routed to unhealthy peer", k)
			}
		case after != before[i]:
			t.Fatalf("key %q moved %q -> %q though its owner stayed healthy", k, before[i], after)
		}
	}
}

// With every peer dead, every key routes to the local slot: the coordinator
// answers everything itself.
func TestAllPeersDeadDegradesToLocal(t *testing.T) {
	wa := newTestPeer(t)
	wb := newTestPeer(t)
	wa.killed.Store(true)
	wb.killed.Store(true)
	c := newTestCoordinator(t, Config{}, wa, wb)
	if c.HealthyPeers() != 0 || c.Ready() {
		t.Fatalf("dead peers probed healthy: %d healthy, ready=%v", c.HealthyPeers(), c.Ready())
	}
	for _, k := range testKeys() {
		if addr := c.Route(k); addr != "" {
			t.Fatalf("key %q routed to dead peer %q", k, addr)
		}
	}
}

func TestProbeRecoveryRestoresPeer(t *testing.T) {
	w := newTestPeer(t)
	w.killed.Store(true)
	c := newTestCoordinator(t, Config{}, w)
	p := c.peerByAddr(w.srv.URL)
	if p.isHealthy() {
		t.Fatal("dead peer probed healthy")
	}
	w.killed.Store(false)
	c.ProbeOnce(context.Background())
	if !p.isHealthy() {
		t.Fatal("revived peer still unhealthy after a successful probe")
	}
	if !c.Ready() {
		t.Fatal("coordinator not ready with its full peer set healthy")
	}
}

func TestBackgroundProbesFollowBackoffSchedule(t *testing.T) {
	w := newTestPeer(t)
	w.killed.Store(true)
	cfg := Config{
		Peers:         []string{w.srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Backoff:       retry.Policy{Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond, Jitter: true},
	}
	c := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	p := c.peerByAddr(w.srv.URL)
	for time.Now().Before(deadline) && p.isHealthy() {
		time.Sleep(2 * time.Millisecond)
	}
	if p.isHealthy() {
		t.Fatal("prober never marked the dead peer unhealthy")
	}
	w.killed.Store(false)
	for time.Now().Before(deadline) && !p.isHealthy() {
		time.Sleep(2 * time.Millisecond)
	}
	if !p.isHealthy() {
		t.Fatal("backoff prober never rediscovered the revived peer")
	}
}

func TestProxyEstimateRoundTripsReportBytes(t *testing.T) {
	rep := &core.Report{
		Name:         "typeset",
		Instructions: 1234,
		BasicBlocks:  7,
		Estimate:     &core.Estimate{LambdaMean: 2.5, LambdaStd: 0.5, TotalInsts: 1e6},
		// A routed Monte Carlo request's report carries its validation back.
		MC: &core.MCValidation{Trials: 5000, Chunks: 20, Mean: 2.4912, Std: 1.5837,
			LambdaRef: 2.5, MaxCDFDistance: 0.0071, Bound: 0.0513, Within: true},
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var sawForwarded, sawFingerprint bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/estimate", func(rw http.ResponseWriter, r *http.Request) {
		sawForwarded = r.Header.Get(HeaderForwarded) != ""
		sawFingerprint = r.Header.Get(HeaderFingerprint) == "model-A"
		rw.Header().Set("Content-Type", "application/json")
		io.WriteString(rw, `{"key":"k","cached":false,"report":`+string(want)+`}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := New(Config{Peers: []string{srv.URL}, Fingerprint: "model-A"})
	c.ProbeOnce(context.Background())
	got, err := c.ProxyEstimate(context.Background(), srv.URL, []byte(`{"benchmark":"typeset","mc_trials":5000}`))
	if err != nil {
		t.Fatal(err)
	}
	if !sawForwarded || !sawFingerprint {
		t.Fatalf("proxy headers missing: forwarded=%v fingerprint=%v", sawForwarded, sawFingerprint)
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(want) {
		t.Fatalf("proxied report re-marshal diverged:\n got %s\nwant %s", back, want)
	}
	if st := c.Stats(); st.ProxiedEstimates != 1 || st.ProxyFallbacks != 0 {
		t.Fatalf("stats after clean proxy: %+v", st)
	}
}

func TestProxyEstimateFailureCountsFallback(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/estimate", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusConflict)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := New(Config{Peers: []string{srv.URL}})
	c.ProbeOnce(context.Background())
	if _, err := c.ProxyEstimate(context.Background(), srv.URL, []byte(`{}`)); err == nil {
		t.Fatal("409 from the peer did not surface as an error")
	}
	if _, err := c.ProxyEstimate(context.Background(), "http://nowhere.invalid", nil); err == nil {
		t.Fatal("unknown peer accepted")
	}
	st := c.Stats()
	if st.ProxyFallbacks != 1 || st.FingerprintMismatches != 1 {
		t.Fatalf("stats after failed proxy: %+v", st)
	}
}
