package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/cfg"
	"tsperr/internal/core"
)

// postBatch posts one batch request and decodes the response body.
func postBatch(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

// getBatch polls GET /v1/batches/{id}.
func getBatch(t *testing.T, url, id string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

// waitBatchStatus polls until the batch reaches want ("done") or the deadline
// trips, returning the final body.
func waitBatchStatus(t *testing.T, url, id, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, m := getBatch(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("poll code %d: %v", code, m)
		}
		if m["status"] == want {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never reached %q: %v", want, m)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// entries unpacks the scenarios array of a batch response.
func entries(t *testing.T, m map[string]any) []map[string]any {
	t.Helper()
	raw, ok := m["scenarios"].([]any)
	if !ok {
		t.Fatalf("no scenarios array in %v", m)
	}
	out := make([]map[string]any, len(raw))
	for i, e := range raw {
		out[i], _ = e.(map[string]any)
	}
	return out
}

// The full lifecycle: a mixed suite is accepted with 202, results appear
// incrementally as entries land, and the final document carries per-entry
// reports.
func TestBatchLifecycleIncrementalResults(t *testing.T) {
	// Per-benchmark release gates let the test land entries one at a time.
	gates := map[string]chan struct{}{
		"basicmath": make(chan struct{}),
		"dijkstra":  make(chan struct{}),
	}
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		select {
		case <-gates[benchmark]:
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 4})

	code, body := postBatch(t, ts.URL, `{"scenarios":[
		{"benchmark":"basicmath"},
		{"benchmark":"dijkstra","scenarios":3,"mc_trials":500}
	]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	if id == "" || body["poll"] != "/v1/batches/"+id {
		t.Fatalf("bad acceptance body %v", body)
	}
	if body["scenarios"] != float64(2) {
		t.Errorf("acknowledged scenarios = %v, want 2", body["scenarios"])
	}

	// Land the first entry only; the poll must show its report while the
	// second entry is still running — that is the incremental contract.
	close(gates["basicmath"])
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, m := getBatch(t, ts.URL, id)
		es := entries(t, m)
		if es[0]["status"] == "done" {
			if m["status"] != "running" {
				t.Errorf("batch status = %v with one entry pending, want running", m["status"])
			}
			rep, _ := es[0]["report"].(map[string]any)
			if rep["name"] != "basicmath" {
				t.Errorf("early entry report = %v", rep["name"])
			}
			if es[1]["status"] == "done" {
				t.Errorf("gated entry completed early: %v", es[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first entry never landed: %v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(gates["dijkstra"])
	final := waitBatchStatus(t, ts.URL, id, "done")
	if final["done"] != float64(2) || final["failed"] != float64(0) || final["pending"] != float64(0) {
		t.Fatalf("final tallies: %v", final)
	}
	for i, e := range entries(t, final) {
		if e["status"] != "done" {
			t.Errorf("entry %d status = %v", i, e["status"])
		}
		if e["key"] == "" {
			t.Errorf("entry %d missing key", i)
		}
	}

	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_batches_started_total"] != 1 || m["tsperrd_batches_finished_total"] != 1 {
		t.Errorf("batch counters: started %v finished %v, want 1/1",
			m["tsperrd_batches_started_total"], m["tsperrd_batches_finished_total"])
	}
	if m["tsperrd_batch_seconds_count"] != 1 {
		t.Errorf("batch_seconds_count = %v, want 1", m["tsperrd_batch_seconds_count"])
	}
}

// TestBatchEntryKeepsSummary pins that a finished batch entry stores the
// report's wire projection, as the result cache does, not the full report
// with its graph and per-scenario state; and that the entry's report bytes
// in the poll body equal /v1/estimate's for the same request.
func TestBatchEntryKeepsSummary(t *testing.T) {
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		rep := fakeReport(benchmark)
		rep.Graph = &cfg.Graph{}
		return rep, nil
	}
	s, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 2})
	code, body := postBatch(t, ts.URL, `{"scenarios":[{"benchmark":"dijkstra","scenarios":2}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	waitBatchStatus(t, ts.URL, id, "done")
	s.mu.Lock()
	rep := s.batches[id].entries[0].rep
	s.mu.Unlock()
	if rep == nil || rep.Scenarios != nil || rep.Graph != nil {
		t.Fatalf("stored entry report keeps %d scenarios and graph %v, want the summary", len(rep.Scenarios), rep.Graph)
	}

	var polled struct {
		Scenarios []struct {
			Report json.RawMessage `json:"report"`
		} `json:"scenarios"`
	}
	resp, err := http.Get(ts.URL + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	// A second daemon computes the same request on /v1/estimate, so its
	// response encodes the full report.
	_, other := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 2})
	var estimated struct {
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	resp, err = http.Post(other.URL+"/v1/estimate", "application/json", strings.NewReader(`{"benchmark":"dijkstra","scenarios":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&estimated); err != nil {
		t.Fatal(err)
	}
	if estimated.Cached {
		t.Fatal("the second daemon answered from its cache")
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, polled.Scenarios[0].Report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, estimated.Report); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("batch entry report differs from /v1/estimate's\nbatch:    %s\nestimate: %s", a.String(), b.String())
	}
}

// The acceptance criterion: a batch of N identical scenarios performs exactly
// one computation, pinned via /metrics.
func TestBatchDedupIdenticalScenarios(t *testing.T) {
	var computations atomic.Int64
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		computations.Add(1)
		select {
		case <-time.After(50 * time.Millisecond):
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 4})

	const n = 6
	entry := `{"benchmark":"patricia","scenarios":2}`
	doc := `{"scenarios":[` + strings.Repeat(entry+",", n-1) + entry + `]}`
	code, body := postBatch(t, ts.URL, doc)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	final := waitBatchStatus(t, ts.URL, id, "done")

	if got := computations.Load(); got != 1 {
		t.Errorf("analyze ran %d times for %d identical entries, want exactly 1", got, n)
	}
	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_computations_total"] != 1 {
		t.Errorf("computations_total = %v, want 1", m["tsperrd_computations_total"])
	}

	es := entries(t, final)
	key0, _ := es[0]["key"].(string)
	for i, e := range es {
		if e["status"] != "done" {
			t.Fatalf("entry %d status = %v", i, e["status"])
		}
		if e["key"] != key0 {
			t.Errorf("entry %d key diverges from entry 0", i)
		}
		rep, _ := e["report"].(map[string]any)
		if rep["name"] != "patricia" {
			t.Errorf("entry %d report = %v", i, rep["name"])
		}
		// Every entry after the first shared the head computation, either by
		// joining its flight or by hitting the cache it filled.
		if i > 0 && e["dedup"] != true && e["cached"] != true {
			t.Errorf("entry %d neither dedup nor cached: %v", i, e)
		}
	}
}

// A failing entry must not poison the rest of the suite.
func TestBatchPartialFailure(t *testing.T) {
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		if benchmark == "tiff2bw" {
			return nil, fmt.Errorf("scenario blew up")
		}
		return fakeReport(benchmark), nil
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 2})

	code, body := postBatch(t, ts.URL, `{"scenarios":[
		{"benchmark":"typeset"},
		{"benchmark":"tiff2bw"},
		{"benchmark":"stringsearch"}
	]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	final := waitBatchStatus(t, ts.URL, id, "done")
	if final["done"] != float64(2) || final["failed"] != float64(1) {
		t.Fatalf("tallies: %v", final)
	}
	es := entries(t, final)
	if es[1]["status"] != "failed" || !strings.Contains(es[1]["error"].(string), "blew up") {
		t.Errorf("failed entry: %v", es[1])
	}
	for _, i := range []int{0, 2} {
		if es[i]["status"] != "done" {
			t.Errorf("entry %d should have survived: %v", i, es[i])
		}
	}
}

// Batch admission is atomic: any invalid entry rejects the whole suite with
// 400 before anything is queued.
func TestBatchValidation(t *testing.T) {
	var computations atomic.Int64
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		computations.Add(1)
		return fakeReport(benchmark), nil
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, MaxBatch: 3})

	cases := []struct {
		name, body, wantFrag string
	}{
		{"empty suite", `{"scenarios":[]}`, "no scenarios"},
		{"missing scenarios", `{}`, "no scenarios"},
		{"oversized suite", `{"scenarios":[{"benchmark":"a"},{"benchmark":"b"},{"benchmark":"c"},{"benchmark":"d"}]}`, "exceeds limit"},
		{"async entry", `{"scenarios":[{"benchmark":"a","async":true}]}`, "async"},
		{"invalid entry", `{"scenarios":[{"benchmark":"a"},{"benchmark":"b","retries":-1}]}`, "scenario 1"},
		// This server has no Config.AnalyzeAt, so it serves no override.
		{"operating-point override", `{"scenarios":[{"benchmark":"typeset","freq_ratio":1.2}]}`, "scenario 0: this daemon does not serve operating-point overrides"},
		{"unknown field", `{"scenarios":[{"benchmark":"a","bogus":1}]}`, "invalid request body"},
		{"malformed", `{"scenarios":`, "invalid request body"},
	}
	for _, tc := range cases {
		code, body := postBatch(t, ts.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d body %v, want 400", tc.name, code, body)
		}
		msg, _ := body["error"].(string)
		if !strings.Contains(msg, tc.wantFrag) {
			t.Errorf("%s: error %q missing %q", tc.name, msg, tc.wantFrag)
		}
	}
	if computations.Load() != 0 {
		t.Errorf("rejected batches still computed %d times", computations.Load())
	}

	code, body := getBatch(t, ts.URL, "batch-doesnotexist00")
	if code != http.StatusNotFound {
		t.Errorf("unknown batch: code %d body %v, want 404", code, body)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := int(m["tsperrd_bad_requests_total"]); got != len(cases) {
		t.Errorf("bad_requests_total = %d, want %d", got, len(cases))
	}
}

// The batch store is bounded: with room for one batch, a second suite is
// refused with 503 while the first runs, and once the first finishes it is
// evicted to admit the next.
func TestBatchRetention(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		if benchmark == "basicmath" {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeReport(benchmark), nil
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, BatchRetention: 1})

	code, body := postBatch(t, ts.URL, `{"scenarios":[{"benchmark":"basicmath"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("first batch: code %d body %v", code, body)
	}
	first, _ := body["batch_id"].(string)
	<-started

	rejects := scrapeMetrics(t, ts.URL)["tsperrd_queue_rejects_total"]
	code, body = postBatch(t, ts.URL, `{"scenarios":[{"benchmark":"dijkstra"}]}`)
	if msg, _ := body["error"].(string); code != http.StatusServiceUnavailable || !strings.Contains(msg, "batch store full") {
		t.Errorf("batch past a full store: code %d body %v, want 503 batch store full", code, body)
	}
	if got := scrapeMetrics(t, ts.URL)["tsperrd_queue_rejects_total"]; got != rejects+1 {
		t.Errorf("queue_rejects_total = %v, want %v", got, rejects+1)
	}

	close(release)
	waitBatchStatus(t, ts.URL, first, "done")
	code, body = postBatch(t, ts.URL, `{"scenarios":[{"benchmark":"dijkstra"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch after the first finished: code %d body %v", code, body)
	}
	if code, body := getBatch(t, ts.URL, first); code != http.StatusNotFound {
		t.Errorf("evicted batch: code %d body %v, want 404", code, body)
	}
}

// Drain semantics: entries admitted before Close run to completion; entries
// the pacer has not yet admitted become "rejected", and the batch still
// reaches a terminal state.
func TestBatchDrainRejectsUnadmittedEntries(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 1, QueueDepth: 1})

	// Three distinct entries against a 1-worker/1-slot queue: the first runs,
	// the second sits in the backlog, the third is stuck in the pacer's
	// capacity-poll loop.
	code, body := postBatch(t, ts.URL, `{"scenarios":[
		{"benchmark":"basicmath"},
		{"benchmark":"dijkstra"},
		{"benchmark":"typeset"}
	]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	<-started // worker busy on entry 0
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second entry never reached the backlog")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain. Close blocks until the queue empties, so release the gate once
	// the drain has begun.
	closeDone := make(chan struct{})
	go func() { s.Close(); close(closeDone) }()
	deadline = time.Now().Add(5 * time.Second)
	for !s.draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closeDone

	final := waitBatchStatus(t, ts.URL, id, "done")
	es := entries(t, final)
	for _, i := range []int{0, 1} {
		if es[i]["status"] != "done" {
			t.Errorf("admitted entry %d = %v, want done (drain must finish it)", i, es[i]["status"])
		}
	}
	if es[2]["status"] != "rejected" || !strings.Contains(es[2]["error"].(string), "draining") {
		t.Errorf("unadmitted entry = %v, want rejected/draining", es[2])
	}
	if final["failed"] != float64(1) || final["done"] != float64(2) {
		t.Errorf("tallies: %v", final)
	}
}

// Backpressure inheritance: a suite wider than the whole queue still
// completes — the pacer waits for capacity instead of 503ing the tail.
func TestBatchWiderThanQueueCompletes(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		mu.Lock()
		seen[benchmark] = true
		mu.Unlock()
		select {
		case <-time.After(5 * time.Millisecond):
			return fakeReport(benchmark), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newTestServer(t, context.Background(), Config{Analyze: analyze, Workers: 1, QueueDepth: 1})

	names := []string{"basicmath", "bitcount", "dijkstra", "patricia", "typeset", "stringsearch"}
	var sb strings.Builder
	sb.WriteString(`{"scenarios":[`)
	for i, n := range names {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"benchmark":%q}`, n)
	}
	sb.WriteString(`]}`)

	code, body := postBatch(t, ts.URL, sb.String())
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	final := waitBatchStatus(t, ts.URL, id, "done")
	if final["done"] != float64(len(names)) {
		t.Fatalf("done = %v, want %d: %v", final["done"], len(names), final)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(names) {
		t.Errorf("computed %d distinct benchmarks, want %d", len(seen), len(names))
	}
}

// Batches are rejected before the model is warm, like single estimates.
func TestBatchWarmingGate(t *testing.T) {
	analyze := func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
		return fakeReport(benchmark), nil
	}
	s, err := New(context.Background(), Config{Analyze: analyze})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Abort() })
	code, body := postBatch(t, ts.URL, `{"scenarios":[{"benchmark":"typeset"}]}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("warming batch: code %d body %v, want 503", code, body)
	}
}
