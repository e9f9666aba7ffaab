package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/core"
)

// fakeReport builds a minimal but marshalable report for a benchmark.
func fakeReport(name string) *core.Report {
	return &core.Report{
		Name:         name,
		Instructions: 1000,
		BasicBlocks:  3,
		Scenarios:    make([]core.Scenario, 2),
		Estimate:     &core.Estimate{LambdaMean: 5, LambdaStd: 1, TotalInsts: 1e5},
	}
}

// newTestServer builds a ready Server around analyze and serves it from an
// httptest server. Cleanup drains the server before closing the listener.
func newTestServer(t *testing.T, ctx context.Context, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Abort()
	})
	return s, ts
}

// postEstimate posts one estimate request and decodes the response body.
func postEstimate(ctx context.Context, url, body string) (int, map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/estimate", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, m, nil
}

var metricLineRe = regexp.MustCompile(`^(\w+)(?:\{[^}]*\})? ([0-9eE.+-]+)$`)

// scrapeMetrics fetches /metrics and returns a name -> value map; labeled
// series accumulate under their bare name.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := metricLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] += v
	}
	return out
}

// The acceptance scenario: 16 concurrent identical requests must produce
// exactly one computation; the other 15 either join the in-flight
// computation or hit the result cache, and /metrics proves it.
func TestDedupSixteenConcurrentIdenticalRequests(t *testing.T) {
	var computations atomic.Int64
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		computations.Add(1)
		select {
		case <-time.After(150 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeReport(benchmark), nil
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 4})

	const clients = 16
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"patricia","scenarios":3}`)
			if err != nil {
				errs[i] = err
				return
			}
			if code != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %v", code, body)
				return
			}
			rep, _ := body["report"].(map[string]any)
			if rep["name"] != "patricia" {
				errs[i] = fmt.Errorf("report name = %v", rep["name"])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := computations.Load(); got != 1 {
		t.Errorf("analyze ran %d times, want exactly 1", got)
	}
	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_computations_total"] != 1 {
		t.Errorf("computations_total = %v, want 1", m["tsperrd_computations_total"])
	}
	if joins := m["tsperrd_dedup_joins_total"] + m["tsperrd_cache_hits_total"]; joins != clients-1 {
		t.Errorf("dedup joins + cache hits = %v, want %d", joins, clients-1)
	}
}

// A sequential identical request must come from the LRU, not a recompute.
func TestCacheHitServesRepeatRequest(t *testing.T) {
	var computations atomic.Int64
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		computations.Add(1)
		return fakeReport(benchmark), nil
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze})

	for i, wantCached := range []bool{false, true} {
		code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"typeset"}`)
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %d: code %d err %v", i, code, err)
		}
		if body["cached"] != wantCached {
			t.Errorf("request %d cached = %v, want %v", i, body["cached"], wantCached)
		}
	}
	if computations.Load() != 1 {
		t.Errorf("computations = %d, want 1", computations.Load())
	}
	// A different request key computes afresh.
	if _, _, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"typeset","scenarios":5}`); err != nil {
		t.Fatal(err)
	}
	if computations.Load() != 2 {
		t.Errorf("computations = %d after distinct request, want 2", computations.Load())
	}
}

// A client that disconnects mid-computation must cancel the pipeline's
// context when it was the only observer.
func TestClientCancellationPropagates(t *testing.T) {
	started := make(chan struct{})
	observed := make(chan error, 1)
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		close(started)
		<-ctx.Done()
		observed <- ctx.Err()
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze})

	reqCtx, cancel := context.WithCancel(context.Background())
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		_, _, _ = postEstimate(reqCtx, ts.URL, `{"benchmark":"dijkstra"}`)
	}()
	<-started
	cancel()
	select {
	case err := <-observed:
		if err != context.Canceled {
			t.Errorf("pipeline ctx err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client cancellation never reached the pipeline context")
	}
	<-clientDone
}

// With a second observer still attached, one client leaving must NOT cancel
// the shared computation.
func TestCancellationSparesSharedFlight(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, context.Background(), Config{Analyze: analyze})

	reqCtx, cancelFirst := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		_, _, _ = postEstimate(reqCtx, ts.URL, `{"benchmark":"basicmath"}`)
	}()
	<-started

	// Second observer joins the same flight (poll the dedup counter to know
	// it has attached before the first client leaves).
	type result struct {
		code int
		body map[string]any
		err  error
	}
	secondDone := make(chan result, 1)
	go func() {
		code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"basicmath"}`)
		secondDone <- result{code, body, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.met.dedupJoins.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second client never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancelFirst()
	<-firstDone
	close(release)
	got := <-secondDone
	if got.err != nil || got.code != http.StatusOK {
		t.Fatalf("surviving client: code %d err %v", got.code, got.err)
	}
	rep, _ := got.body["report"].(map[string]any)
	if rep["name"] != "basicmath" {
		t.Errorf("surviving client got report %v", rep["name"])
	}
}

// Graceful drain: Close must block until the in-flight request finishes,
// and that request must receive its real result.
func TestCloseDrainsInFlightRequest(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		close(started)
		<-release
		return fakeReport(benchmark), nil
	}
	s, ts := newTestServer(t, context.Background(), Config{Analyze: analyze})

	type result struct {
		code int
		body map[string]any
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"typeset"}`)
		reqDone <- result{code, body, err}
	}()
	<-started

	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a computation was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	// New work is rejected while draining.
	code, _, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"dijkstra"}`)
	if err != nil || code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: code %d err %v, want 503", code, err)
	}

	close(release)
	got := <-reqDone
	if got.err != nil || got.code != http.StatusOK {
		t.Fatalf("drained request: code %d err %v", got.code, got.err)
	}
	rep, _ := got.body["report"].(map[string]any)
	if rep["name"] != "typeset" {
		t.Errorf("drained request got report %v", rep["name"])
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the drain")
	}
}

// A full compute queue pushes back with 503 instead of queueing unbounded.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(release)
	s, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 1, QueueDepth: 1})

	go func() { _, _, _ = postEstimate(context.Background(), ts.URL, `{"benchmark":"a1"}`) }()
	<-started // worker busy; backlog empty

	// Occupies the single backlog slot; poll the queue until it lands there
	// (the worker is blocked, so this request cannot start running).
	go func() { _, _, _ = postEstimate(context.Background(), ts.URL, `{"benchmark":"a2"}`) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the backlog")
		}
		time.Sleep(time.Millisecond)
	}

	code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"a3"}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("full-queue request: code %d body %v, want 503", code, body)
	}
	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_queue_rejects_total"] == 0 {
		t.Error("queue_rejects_total should be nonzero")
	}
}

// Validation failures are client errors with explanatory bodies, counted in
// the bad-request metric; unknown fields are rejected.
func TestRequestValidation(t *testing.T) {
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		return fakeReport(benchmark), nil
	}
	lookup := func(name string) error {
		if name != "known" {
			return fmt.Errorf("no benchmark %q", name)
		}
		return nil
	}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: analyze,
		Limits:  Limits{MaxScenarios: 8, Lookup: lookup},
	})

	cases := []struct {
		name, body, wantFrag string
	}{
		{"missing benchmark", `{}`, "benchmark is required"},
		{"unknown benchmark", `{"benchmark":"nonesuch"}`, "unknown benchmark"},
		{"oversized scenarios", `{"benchmark":"known","scenarios":9}`, "out of range"},
		{"negative retries", `{"benchmark":"known","retries":-1}`, "out of range"},
		{"min_scenarios above scenarios", `{"benchmark":"known","scenarios":2,"min_scenarios":3}`, "out of range"},
		{"unknown field", `{"benchmark":"known","scenarioz":2}`, "scenarioz"},
		{"async field", `{"benchmark":"typeset","async":true}`, "async"},
		{"malformed body", `{`, "invalid request body"},
	}
	for _, tc := range cases {
		code, body, err := postEstimate(context.Background(), ts.URL, tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", tc.name, code)
		}
		msg, _ := body["error"].(string)
		if !strings.Contains(msg, tc.wantFrag) {
			t.Errorf("%s: error %q missing %q", tc.name, msg, tc.wantFrag)
		}
	}
	if code, _, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"known","scenarios":2}`); err != nil || code != http.StatusOK {
		t.Errorf("valid request: code %d err %v", code, err)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := int(m["tsperrd_bad_requests_total"]); got != len(cases) {
		t.Errorf("bad_requests_total = %d, want %d", got, len(cases))
	}
}

// Before SetReady, estimates and health checks advertise the warm-up.
func TestWarmingGate(t *testing.T) {
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		return fakeReport(benchmark), nil
	}
	s, err := New(context.Background(), Config{Analyze: analyze})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Abort() })

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("warming healthz code %d, want 503", resp.StatusCode)
	}
	code, _, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"x"}`)
	if err != nil || code != http.StatusServiceUnavailable {
		t.Errorf("warming estimate code %d err %v, want 503", code, err)
	}

	s.SetReady()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Errorf("ready healthz = %d %v", resp.StatusCode, h)
	}
}

// A panicking analyze must not kill the daemon: the waiter gets an error
// response and the panic is counted.
func TestAnalyzePanicIsContained(t *testing.T) {
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		panic("pipeline bug")
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze})

	code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"typeset"}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusInternalServerError {
		t.Errorf("panicking request: code %d body %v, want 500", code, body)
	}
	msg, _ := body["error"].(string)
	if !strings.Contains(msg, "panic in analyze") {
		t.Errorf("panicking request error = %q", msg)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := scrapeMetrics(t, ts.URL)
		if m["tsperrd_panics_total"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("panic never surfaced in metrics")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The server still serves.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", resp.StatusCode)
	}
}

// slowWriter is a ResponseWriter whose body writes take at least delay, as
// a large response encode or a slow client would.
type slowWriter struct {
	*httptest.ResponseRecorder
	delay time.Duration
}

func (w slowWriter) Write(b []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(b)
}

// The request-latency histogram must cover the response write on every
// answered path (computed, cache hit, surrogate): it is what a caller
// waits for, and on a cache hit it is most of the time.
func TestRequestLatencyIncludesResponseWrite(t *testing.T) {
	const delay = 20 * time.Millisecond
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		return fakeReport(benchmark), nil
	}
	stub := &stubSurrogate{decision: confidentDecision()}
	s, _ := newTestServer(t, context.Background(), Config{
		Analyze: analyze, Surrogate: stub, SurrogateMode: SurrogateServe,
	})
	for _, tc := range []struct {
		name       string
		serve      bool // whether the surrogate answers
		tier       string
		wantCached bool
	}{
		{"surrogate", true, core.TierSurrogate, false},
		{"computed", false, core.TierExact, false},
		{"cache hit", false, core.TierExact, true},
	} {
		stub.decision.Serve = tc.serve
		count, sum := s.met.latency.count.Load(), s.met.latency.sum.Load()
		w := slowWriter{httptest.NewRecorder(), delay}
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{"benchmark":"typeset"}`))
		s.Handler().ServeHTTP(w, req)
		var body estimateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", tc.name, w.Code, err, w.Body)
		}
		if body.Tier != tc.tier || body.Cached != tc.wantCached {
			t.Fatalf("%s: answered by tier %q cached %v", tc.name, body.Tier, body.Cached)
		}
		if got := s.met.latency.count.Load() - count; got != 1 {
			t.Errorf("%s: %d latency observations, want 1", tc.name, got)
		}
		if got := time.Duration(s.met.latency.sum.Load()-sum) * time.Microsecond; got < delay {
			t.Errorf("%s: observed latency %v excludes the %v response write", tc.name, got, delay)
		}
	}
}
