// The chaos suite: every distributed test compares the fan-out result
// bit-for-bit against montecarlo.RunSharded on the same spec, because
// distribution is a scheduling decision and must never be a semantic one —
// not with dead workers, not with injected network faults, not with hedged
// re-dispatch.
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
	"tsperr/internal/errormodel"
	"tsperr/internal/faultinject"
	"tsperr/internal/isa"
	"tsperr/internal/montecarlo"
	"tsperr/internal/retry"
)

const loopSrc = `
	li r1, 40
	li r2, 0
loop:
	add  r2, r2, r1
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`

// testSpec builds a Monte Carlo spec over the loop program with synthetic
// scenario-scaled conditionals (the same shape the montecarlo package tests
// use). Every node in a test cluster derives its spec from this one function,
// mirroring how real workers rebuild specs from the benchmark identity.
func testSpec(t testing.TB, scenarios, trials int, seed uint64) montecarlo.Spec {
	t.Helper()
	p, err := isa.Assemble("mcloop", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	conds := make([]*errormodel.Conditionals, scenarios)
	for s := range conds {
		n := len(p.Insts)
		cond := &errormodel.Conditionals{PC: make([]float64, n), PE: make([]float64, n)}
		f := 1 + 0.2*float64(s)
		for i := range cond.PC {
			cond.PC[i] = 0.02 * f
			cond.PE[i] = 0.05 * f
		}
		conds[s] = cond
	}
	return montecarlo.Spec{Prog: p, Cond: conds, Trials: trials, Seed: seed}
}

// testWorker is a fake worker node: /healthz liveness plus real chunk
// execution via montecarlo.RunChunk, with knobs for the chaos tests.
type testWorker struct {
	srv  *httptest.Server
	spec montecarlo.Spec

	// chunkCalls counts chunk requests that reached the handler.
	chunkCalls atomic.Int64
	// killed drops every connection, emulating a dead process.
	killed atomic.Bool
	// dieAfter, when positive, flips killed once that many chunk requests
	// have been served — the worker dies mid-run.
	dieAfter int64
	// slow delays every chunk response, for the hedging test.
	slow time.Duration
	// fingerprint, when set, 409s any chunk request carrying a different one.
	fingerprint string
	// negate answers every chunk with its first count negated.
	negate bool
}

func newTestWorker(t *testing.T, spec montecarlo.Spec) *testWorker {
	t.Helper()
	w := &testWorker{spec: spec}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.killed.Load() {
			panic(http.ErrAbortHandler)
		}
		rw.WriteHeader(http.StatusOK)
		io.WriteString(rw, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/cluster/chunk", func(rw http.ResponseWriter, r *http.Request) {
		if w.killed.Load() {
			panic(http.ErrAbortHandler)
		}
		n := w.chunkCalls.Add(1)
		if w.dieAfter > 0 && n > w.dieAfter {
			w.killed.Store(true)
			panic(http.ErrAbortHandler)
		}
		if w.fingerprint != "" && r.Header.Get(HeaderFingerprint) != w.fingerprint {
			rw.WriteHeader(http.StatusConflict)
			return
		}
		if w.slow > 0 {
			time.Sleep(w.slow)
		}
		var creq ChunkRequest
		if err := json.NewDecoder(r.Body).Decode(&creq); err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		spec := w.spec
		spec.Trials, spec.Seed = creq.Trials, creq.Seed
		res, err := montecarlo.RunChunk(r.Context(), spec, creq.ChunkSize, creq.Index)
		if err != nil {
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		if w.negate {
			res.Counts[0] = -res.Counts[0] - 1
		}
		json.NewEncoder(rw).Encode(res)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

// newTestCoordinator builds a probed coordinator over the workers with fast
// test timings.
func newTestCoordinator(t *testing.T, cfg Config, workers ...*testWorker) *Coordinator {
	t.Helper()
	for _, w := range workers {
		cfg.Peers = append(cfg.Peers, w.srv.URL)
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.ChunkTimeout == 0 {
		cfg.ChunkTimeout = 10 * time.Second
	}
	c := New(cfg)
	c.ProbeOnce(context.Background())
	return c
}

// mcJob wraps a spec in the job the analytic layer would hand the runner.
func mcJob(spec montecarlo.Spec, chunkSize int) core.MCJob {
	return core.MCJob{
		Benchmark: "mcloop",
		Scenarios: len(spec.Cond),
		ChunkSize: chunkSize,
		Spec:      spec,
		Shard:     montecarlo.ShardOpts{ChunkSize: chunkSize},
	}
}

// assertBitIdentical fails unless the two sharded results carry exactly the
// same bits — the determinism contract of the whole cluster layer.
func assertBitIdentical(t *testing.T, got, want *montecarlo.ShardedResult) {
	t.Helper()
	if got.Chunks != want.Chunks {
		t.Fatalf("chunks: got %d, want %d", got.Chunks, want.Chunks)
	}
	if got.Instructions != want.Instructions {
		t.Fatalf("instructions: got %d, want %d", got.Instructions, want.Instructions)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats: got %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("counts: got %d samples, want %d", len(got.Counts), len(want.Counts))
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("count %d: got %v, want %v", i, got.Counts[i], want.Counts[i])
		}
	}
}

// runChaos repeats a fresh distributed run until the chaos condition under
// test is observed. The scheduler races real goroutines, so a fast local
// drain can legitimately finish a run before the targeted fault lands; what
// must hold is that every run — faulted or not — is bit-identical, and that
// when the fault does land the scheduler absorbs it as claimed.
func runChaos(t *testing.T, tries int, attempt func() bool) {
	t.Helper()
	for i := 0; i < tries; i++ {
		if attempt() {
			return
		}
	}
	t.Fatalf("chaos condition not observed in %d runs", tries)
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
	wa := newTestWorker(t, montecarlo.Spec{})
	wb := newTestWorker(t, montecarlo.Spec{})
	c := newTestCoordinator(t, Config{}, wa, wb)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "key-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
	}
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

func TestSchedStealHedgeAndFirstWriterWins(t *testing.T) {
	s := newSched(3)
	c0, _ := s.next()
	c1, _ := s.next()
	c2, _ := s.next()
	if c0 != 0 || c1 != 1 || c2 != 2 {
		t.Fatalf("next handed out %d,%d,%d; want 0,1,2", c0, c1, c2)
	}
	// A failed chunk re-queues (the steal path) and is handed out again.
	if !s.requeue(1) {
		t.Fatal("requeue(1) refused an undelivered chunk")
	}
	if c, ok := s.next(); !ok || c != 1 {
		t.Fatalf("next after requeue: got %d,%v; want 1,true", c, ok)
	}
	// Hedging re-queues in-flight chunks, and the duplicate delivery loses.
	if n := s.hedge(0); n != 3 {
		t.Fatalf("hedge re-queued %d chunks, want 3", n)
	}
	if !s.deliver(0, montecarlo.ChunkResult{Index: 0, Counts: []float64{1}}) {
		t.Fatal("first delivery of chunk 0 rejected")
	}
	if s.deliver(0, montecarlo.ChunkResult{Index: 0, Counts: []float64{9}}) {
		t.Fatal("duplicate delivery of chunk 0 accepted")
	}
	if s.requeue(0) {
		t.Fatal("requeue accepted an already-delivered chunk")
	}
	s.deliver(1, montecarlo.ChunkResult{Index: 1})
	s.deliver(2, montecarlo.ChunkResult{Index: 2})
	// The hedged duplicates of 1 and 2 still sit in the queue; next must
	// skip them and report completion, and a late failure (the canceller
	// tearing down) must not poison the settled outcome.
	if c, ok := s.next(); ok {
		t.Fatalf("next returned chunk %d after completion", c)
	}
	s.fail(context.Canceled)
	res, err := s.outcome()
	if err != nil {
		t.Fatalf("outcome after late fail: %v", err)
	}
	if res[0].Counts[0] != 1 {
		t.Fatalf("chunk 0 result overwritten by hedged duplicate: %v", res[0].Counts)
	}
}

func TestDistributedBitIdenticalToSerial(t *testing.T) {
	spec := testSpec(t, 2, 400, 99)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, 50, func() bool {
		wa := newTestWorker(t, spec)
		wb := newTestWorker(t, spec)
		c := newTestCoordinator(t, Config{LocalWorkers: 1}, wa, wb)
		got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, serial)
		st := c.Stats()
		if st.RemoteChunks+st.LocalChunks != 20 {
			t.Fatalf("accepted chunks %d remote + %d local, want 20 total", st.RemoteChunks, st.LocalChunks)
		}
		return st.RemoteChunks > 0
	})
}

// A peer whose chunks carry a negative count is a bad response: every such
// chunk is re-queued for the local runner, none is accepted, and the run
// stays bit-identical to the serial one.
func TestNegativeChunkCountsAreStolenBitIdentical(t *testing.T) {
	spec := testSpec(t, 2, 400, 99)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, 50, func() bool {
		w := newTestWorker(t, spec)
		w.negate = true
		c := newTestCoordinator(t, Config{LocalWorkers: 1}, w)
		got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, serial)
		if st := c.Stats(); st.RemoteChunks != 0 || st.LocalChunks != 20 {
			t.Fatalf("accepted chunks %d remote + %d local, want 0 + 20", st.RemoteChunks, st.LocalChunks)
		}
		return w.chunkCalls.Load() > 0
	})
}

func TestWorkerKilledMidRunIsStolenBitIdentical(t *testing.T) {
	// Enough chunks that the dying worker's runner reliably comes back for a
	// second claim while work remains: with only 20 chunks, the local worker
	// can drain the whole job before the second request lands (simulation is
	// fast enough since the interpreter overhaul), and the kill never fires.
	spec := testSpec(t, 2, 4000, 7)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, 50, func() bool {
		dying := newTestWorker(t, spec)
		// Serves one chunk, then drops every later connection mid-run while
		// its runner holds an undelivered chunk claim.
		dying.dieAfter = 1
		healthy := newTestWorker(t, spec)
		c := newTestCoordinator(t, Config{LocalWorkers: 1, MaxConsecutiveFailures: 1}, dying, healthy)
		got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, serial)
		if !dying.killed.Load() {
			return false // run drained before the fault landed; go again
		}
		// The worker died holding a claimed chunk, so the scheduler must
		// have re-queued it for someone else, and the repeated failures must
		// have benched the peer.
		if st := c.Stats(); st.StolenChunks == 0 {
			t.Fatalf("worker died mid-run but no chunk was stolen: %+v", st)
		}
		if p := c.peerByAddr(dying.srv.URL); p.isHealthy() {
			t.Fatal("dead worker still marked healthy after repeated failures")
		}
		return true
	})
}

func TestInjectedNetworkFaultsStayBitIdentical(t *testing.T) {
	spec := testSpec(t, 2, 400, 13)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, 50, func() bool {
		// Chunk-targeted rules leave the probes alone (no chunk header =>
		// scenario -2, matched only by -1 wildcards). Resets before the
		// request, truncated response bodies, and injected latency across
		// chunks 0-5.
		inj := faultinject.New(1,
			faultinject.FailOnce(faultinject.NetRequest, 0),
			faultinject.FailOnce(faultinject.NetRequest, 1),
			faultinject.Rule{Point: faultinject.NetResponse, Scenario: 2, Mode: faultinject.Truncate, Times: 1},
			faultinject.Rule{Point: faultinject.NetResponse, Scenario: 3, Mode: faultinject.Truncate, Times: 1},
			faultinject.DelayEach(faultinject.NetRequest, 4, 30*time.Millisecond),
			faultinject.DelayEach(faultinject.NetRequest, 5, 30*time.Millisecond),
		)
		wa := newTestWorker(t, spec)
		wb := newTestWorker(t, spec)
		cfg := Config{
			LocalWorkers: 1,
			Client:       &http.Client{Transport: &faultinject.Transport{Injector: inj}},
			// Failures must not bench the peers for the whole run: the point
			// is surviving faults, not avoiding the faulty path.
			MaxConsecutiveFailures: 100,
		}
		c := newTestCoordinator(t, cfg, wa, wb)
		got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, serial)
		return inj.Fired(faultinject.NetRequest)+inj.Fired(faultinject.NetResponse) > 0
	})
}

func TestLocalOnlyJobNeverLeavesTheNode(t *testing.T) {
	spec := testSpec(t, 2, 100, 5)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(t, spec)
	c := newTestCoordinator(t, Config{}, w)
	job := mcJob(spec, chunkSize)
	job.LocalOnly = true // degraded or fault-injected analytic runs set this
	got, err := c.MCRun(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, serial)
	if n := w.chunkCalls.Load(); n != 0 {
		t.Fatalf("LocalOnly job sent %d chunks to a peer", n)
	}
}

func TestAllPeersDeadDegradesToLocal(t *testing.T) {
	spec := testSpec(t, 2, 100, 21)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	wa := newTestWorker(t, spec)
	wb := newTestWorker(t, spec)
	wa.killed.Store(true)
	wb.killed.Store(true)
	c := newTestCoordinator(t, Config{}, wa, wb)
	if c.HealthyPeers() != 0 || c.Ready() {
		t.Fatalf("dead peers probed healthy: %d healthy, ready=%v", c.HealthyPeers(), c.Ready())
	}
	got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, serial)
	if st := c.Stats(); st.RemoteChunks != 0 {
		t.Fatalf("%d chunks reported remote with every peer dead", st.RemoteChunks)
	}
}

func TestHedgeRedispatchesSlowChunks(t *testing.T) {
	spec := testSpec(t, 2, 100, 31)
	const chunkSize = 25
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, 50, func() bool {
		slow := newTestWorker(t, spec)
		slow.slow = 400 * time.Millisecond
		cfg := Config{
			LocalWorkers:    1,
			PeerConcurrency: 1,
			HedgeAfter:      30 * time.Millisecond,
		}
		c := newTestCoordinator(t, cfg, slow)
		got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, serial)
		if slow.chunkCalls.Load() == 0 {
			return false // the stall never claimed a chunk; go again
		}
		// A claimed chunk stalls 400ms against a 30ms hedge threshold: it
		// must have been re-dispatched, and the duplicate must have lost.
		if st := c.Stats(); st.HedgedChunks == 0 {
			t.Fatalf("400ms worker stalls never tripped the 30ms hedge: %+v", st)
		}
		return true
	})
}

func TestFingerprintMismatchIsRejectedAndStolen(t *testing.T) {
	spec := testSpec(t, 2, 100, 41)
	const chunkSize = 20
	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, 50, func() bool {
		w := newTestWorker(t, spec)
		w.fingerprint = "model-B"
		c := newTestCoordinator(t, Config{Fingerprint: "model-A", LocalWorkers: 1}, w)
		got, err := c.MCRun(context.Background(), mcJob(spec, chunkSize))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, got, serial)
		st := c.Stats()
		if st.RemoteChunks != 0 {
			t.Fatalf("%d chunks accepted from a worker running a different model", st.RemoteChunks)
		}
		return st.FingerprintMismatches > 0
	})
}

func TestProbeRecoveryRestoresPeer(t *testing.T) {
	w := newTestWorker(t, montecarlo.Spec{})
	w.killed.Store(true)
	c := newTestCoordinator(t, Config{}, w)
	p := c.peerByAddr(w.srv.URL)
	if p.isHealthy() {
		t.Fatal("dead worker probed healthy")
	}
	w.killed.Store(false)
	c.ProbeOnce(context.Background())
	if !p.isHealthy() {
		t.Fatal("revived worker still unhealthy after a successful probe")
	}
	if !c.Ready() {
		t.Fatal("coordinator not ready with its full peer set healthy")
	}
}

func TestBackgroundProbesFollowBackoffSchedule(t *testing.T) {
	w := newTestWorker(t, montecarlo.Spec{})
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
		t.Fatal("prober never marked the dead worker unhealthy")
	}
	w.killed.Store(false)
	for time.Now().Before(deadline) && !p.isHealthy() {
		time.Sleep(2 * time.Millisecond)
	}
	if !p.isHealthy() {
		t.Fatal("backoff prober never rediscovered the revived worker")
	}
}

func TestProxyEstimateRoundTripsReportBytes(t *testing.T) {
	rep := &core.Report{
		Name:         "typeset",
		Instructions: 1234,
		BasicBlocks:  7,
		Estimate:     &core.Estimate{LambdaMean: 2.5, LambdaStd: 0.5, TotalInsts: 1e6},
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
	got, err := c.ProxyEstimate(context.Background(), srv.URL, []byte(`{"benchmark":"typeset"}`))
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
