package server

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/surrogate"
)

// stubSurrogate is a scripted SurrogateTier: decide returns the configured
// decision, observations are counted and recorded.
type stubSurrogate struct {
	decision  SurrogateDecision
	decides   atomic.Uint64
	observes  atomic.Uint64
	residual  float64
	residOK   bool
	lastBench atomic.Value // string
}

func (st *stubSurrogate) Decide(benchmark string, scenarios int, threshold float64) SurrogateDecision {
	st.decides.Add(1)
	st.lastBench.Store(benchmark)
	return st.decision
}

func (st *stubSurrogate) Observe(benchmark string, scenarios int, rep *core.Report) (float64, bool) {
	st.observes.Add(1)
	return st.residual, st.residOK
}

func (st *stubSurrogate) Stats() SurrogateStats {
	return SurrogateStats{ModelVersion: 3, TrainSize: 64, Buffered: 70, Trainings: 3}
}

func confidentDecision() SurrogateDecision {
	return SurrogateDecision{
		Serve:  true,
		Reason: surrogate.ReasonServed,
		Meta: &core.SurrogateMeta{
			PredictedErrorRate: 2e-4,
			PredictedLog10:     -3.7,
			StdLog10:           0.08,
			Bound:              0.25,
			ModelVersion:       3,
			TrainSize:          64,
		},
	}
}

// TestSurrogateServesConfidentPrediction pins the fast path: a confident
// prediction answers with tier "surrogate" and the exact pipeline runs zero
// times.
func TestSurrogateServesConfidentPrediction(t *testing.T) {
	var computations atomic.Uint64
	stub := &stubSurrogate{decision: confidentDecision()}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			computations.Add(1)
			return fakeReport(benchmark), nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateServe,
	})

	code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"bench-a"}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["tier"] != core.TierSurrogate {
		t.Errorf("response tier = %v, want surrogate", body["tier"])
	}
	rep := body["report"].(map[string]any)
	if rep["tier"] != core.TierSurrogate {
		t.Errorf("report tier = %v, want surrogate", rep["tier"])
	}
	meta, ok := rep["surrogate"].(map[string]any)
	if !ok {
		t.Fatalf("report missing surrogate metadata: %v", rep)
	}
	if meta["predicted_error_rate"].(float64) != 2e-4 || meta["bound"].(float64) != 0.25 {
		t.Errorf("surrogate metadata mangled: %v", meta)
	}
	if got := computations.Load(); got != 0 {
		t.Errorf("exact pipeline ran %d times on a confident prediction", got)
	}

	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_surrogate_hits_total"] != 1 {
		t.Errorf("surrogate hits = %g, want 1", m["tsperrd_surrogate_hits_total"])
	}
	if m["tsperrd_surrogate_serving"] != 1 {
		t.Errorf("serving gauge = %g, want 1", m["tsperrd_surrogate_serving"])
	}
	if m["tsperrd_surrogate_model_version"] != 3 || m["tsperrd_surrogate_buffer_size"] != 70 {
		t.Errorf("surrogate gauges wrong: version %g buffer %g",
			m["tsperrd_surrogate_model_version"], m["tsperrd_surrogate_buffer_size"])
	}
}

// TestSurrogateEscalatesToExact pins gate honesty at the serving layer: an
// unconfident decision runs the exact pipeline, the response is tier exact,
// the result is observed for training, and the escalation reason is counted.
func TestSurrogateEscalatesToExact(t *testing.T) {
	var computations atomic.Uint64
	stub := &stubSurrogate{
		decision: SurrogateDecision{Reason: surrogate.ReasonUncertain},
		residual: 0.12, residOK: true,
	}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			computations.Add(1)
			return fakeReport(benchmark), nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateServe,
	})

	code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"bench-a","error_rate_threshold":0.001}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["tier"] != core.TierExact {
		t.Errorf("response tier = %v, want exact", body["tier"])
	}
	rep := body["report"].(map[string]any)
	if _, leaked := rep["surrogate"]; leaked {
		t.Error("exact report carries surrogate metadata")
	}
	if computations.Load() != 1 {
		t.Errorf("exact pipeline ran %d times, want 1", computations.Load())
	}
	if stub.observes.Load() != 1 {
		t.Errorf("exact result observed %d times, want 1", stub.observes.Load())
	}

	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_surrogate_hits_total"] != 0 {
		t.Errorf("hits = %g, want 0", m["tsperrd_surrogate_hits_total"])
	}
	// Labeled escalation series accumulate under the bare name.
	if m["tsperrd_surrogate_escalations_total"] != 1 {
		t.Errorf("escalations = %g, want 1", m["tsperrd_surrogate_escalations_total"])
	}
	if m["tsperrd_surrogate_observations_total"] != 1 {
		t.Errorf("observations = %g, want 1", m["tsperrd_surrogate_observations_total"])
	}
	if m["tsperrd_surrogate_residual_log10_count"] != 1 {
		t.Errorf("residual count = %g, want 1", m["tsperrd_surrogate_residual_log10_count"])
	}
}

// TestSurrogateShadowNeverServes pins shadow mode: predictions are never
// consulted for serving, but every exact result records a residual.
func TestSurrogateShadowNeverServes(t *testing.T) {
	stub := &stubSurrogate{decision: confidentDecision(), residual: 0.05, residOK: true}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(benchmark), nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateShadow,
	})

	for _, bench := range []string{"a", "b", "c"} {
		code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"`+bench+`"}`)
		if err != nil {
			t.Fatal(err)
		}
		if code != 200 || body["tier"] != core.TierExact {
			t.Fatalf("shadow response: status %d tier %v", code, body["tier"])
		}
	}
	if stub.decides.Load() != 0 {
		t.Errorf("shadow mode consulted the gate %d times", stub.decides.Load())
	}
	if stub.observes.Load() != 3 {
		t.Errorf("observations = %d, want 3", stub.observes.Load())
	}
	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_surrogate_residual_log10_count"] != 3 {
		t.Errorf("residual count = %g, want 3", m["tsperrd_surrogate_residual_log10_count"])
	}
	if m["tsperrd_surrogate_serving"] != 0 {
		t.Errorf("serving gauge = %g, want 0 in shadow", m["tsperrd_surrogate_serving"])
	}
}

// TestSurrogateBypassedForMCAndBatch: Monte Carlo validations and batch
// entries must always take the exact pipeline, even with a confident
// surrogate.
func TestSurrogateBypassedForMCAndBatch(t *testing.T) {
	var computations atomic.Uint64
	stub := &stubSurrogate{decision: confidentDecision()}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			computations.Add(1)
			return fakeReport(benchmark), nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateServe,
	})

	code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"a","mc_trials":50}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || body["tier"] != core.TierExact {
		t.Fatalf("mc_trials response: status %d tier %v", code, body["tier"])
	}

	code, body = postBatch(t, ts.URL, `{"scenarios":[{"benchmark":"b"}]}`)
	if code != 202 {
		t.Fatalf("batch status %d: %v", code, body)
	}
	id, _ := body["batch_id"].(string)
	final := waitBatchStatus(t, ts.URL, id, "done")
	if e := entries(t, final)[0]; e["status"] != "done" {
		t.Fatalf("batch entry: %v", e)
	}
	if computations.Load() != 2 {
		t.Errorf("exact pipeline ran %d times, want 2", computations.Load())
	}
	if stub.decides.Load() != 0 {
		t.Errorf("gate consulted %d times for mc/batch requests", stub.decides.Load())
	}
}

// TestSurrogateCachedExactWins: a cached exact report beats a confident
// prediction for the identical request.
func TestSurrogateCachedExactWins(t *testing.T) {
	stub := &stubSurrogate{decision: SurrogateDecision{Reason: surrogate.ReasonUncertain}}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(benchmark), nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateServe,
	})

	// First request escalates (uncertain) and caches the exact result.
	if code, _, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"a"}`); err != nil || code != 200 {
		t.Fatalf("seed request: %d %v", code, err)
	}
	// Now the stub turns confident — but the cache must answer first.
	stub.decision = confidentDecision()
	code, body, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"a"}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || body["cached"] != true || body["tier"] != core.TierExact {
		t.Fatalf("cached=%v tier=%v, want cached exact", body["cached"], body["tier"])
	}
	m := scrapeMetrics(t, ts.URL)
	if m["tsperrd_surrogate_hits_total"] != 0 {
		t.Errorf("surrogate answered over a cached exact report")
	}
}

// TestSurrogateObserveSkipsUntrustworthyReports: degraded and zero-rate
// results never become training labels.
func TestSurrogateObserveSkipsUntrustworthyReports(t *testing.T) {
	stub := &stubSurrogate{}
	degraded := fakeReport("a")
	degraded.Degraded = true
	zero := fakeReport("b")
	zero.Estimate = &core.Estimate{LambdaMean: 0, LambdaStd: 0, TotalInsts: 1e5}
	reports := map[string]*core.Report{"a": degraded, "b": zero, "c": fakeReport("c")}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			return reports[benchmark], nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateShadow,
	})
	for _, bench := range []string{"a", "b", "c"} {
		if code, _, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"`+bench+`"}`); err != nil || code != 200 {
			t.Fatalf("%s: %d %v", bench, code, err)
		}
	}
	if stub.observes.Load() != 1 {
		t.Errorf("observed %d reports, want only the clean one", stub.observes.Load())
	}
}

// TestSurrogateBypassedForPointOverrides pins V/T isolation at the serving
// layer: the fast tier is trained from reports at the daemon's own operating
// point, so a request overriding voltage, temperature, or frequency ratio
// must (a) never be answered by the gate — even a confident one — and
// (b) never feed its exact result back as a training observation, which
// would teach the tier the wrong condition.
func TestSurrogateBypassedForPointOverrides(t *testing.T) {
	var exactAt atomic.Uint64
	stub := &stubSurrogate{decision: confidentDecision(), residual: 0.05, residOK: true}
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(benchmark), nil
		},
		AnalyzeAt: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
			exactAt.Add(1)
			return fakeReport(benchmark), nil
		},
		Surrogate:     stub,
		SurrogateMode: SurrogateServe,
	})

	for _, body := range []string{
		`{"benchmark":"a","voltage":0.95}`,
		`{"benchmark":"a","temp_c":85}`,
		`{"benchmark":"a","freq_ratio":1.1}`,
	} {
		code, resp, err := postEstimate(context.Background(), ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if code != 200 || resp["tier"] != core.TierExact {
			t.Fatalf("%s: status %d tier %v, want exact", body, code, resp["tier"])
		}
	}
	if got := exactAt.Load(); got != 3 {
		t.Errorf("AnalyzeAt ran %d times, want 3", got)
	}
	if got := stub.decides.Load(); got != 0 {
		t.Errorf("gate consulted %d times for override requests", got)
	}
	if got := stub.observes.Load(); got != 0 {
		t.Errorf("override results observed %d times — they train the wrong condition", got)
	}

	// A default-point request on the same daemon still uses the tier both ways.
	code, resp, err := postEstimate(context.Background(), ts.URL, `{"benchmark":"a"}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || resp["tier"] != core.TierSurrogate {
		t.Fatalf("default-point request: status %d tier %v, want surrogate", code, resp["tier"])
	}
}

func TestSurrogateConfigValidation(t *testing.T) {
	ctx := context.Background()
	analyze := func(ctx context.Context, b string, sc int, o core.AnalyzeOpts) (*core.Report, error) {
		return fakeReport(b), nil
	}
	if _, err := New(ctx, Config{Analyze: analyze, SurrogateMode: "serve"}); err == nil {
		t.Error("serve mode without a surrogate accepted")
	}
	if _, err := New(ctx, Config{Analyze: analyze, SurrogateMode: "bogus"}); err == nil {
		t.Error("unknown mode accepted")
	}
	s, err := New(ctx, Config{Analyze: analyze})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.SurrogateMode != SurrogateOff {
		t.Errorf("default mode = %q, want off", s.cfg.SurrogateMode)
	}
	s.Abort()
}

func TestErrorRateThresholdValidation(t *testing.T) {
	_, ts := newTestServer(t, context.Background(), Config{
		Analyze: func(ctx context.Context, b string, sc int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
	})
	for _, body := range []string{
		`{"benchmark":"a","error_rate_threshold":-0.1}`,
		`{"benchmark":"a","error_rate_threshold":1}`,
		`{"benchmark":"a","error_rate_threshold":1.5}`,
	} {
		code, resp, err := postEstimate(context.Background(), ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if code != 400 {
			t.Errorf("%s: status %d, want 400", body, code)
		}
		if msg, _ := resp["error"].(string); !strings.Contains(msg, "error_rate_threshold") {
			t.Errorf("%s: error %q does not name the field", body, msg)
		}
	}
	// The threshold tunes the gate, not the result: it must not split the
	// request key.
	a := (&Request{Benchmark: "x", Scenarios: 2}).Key("fp")
	b := (&Request{Benchmark: "x", Scenarios: 2, ErrorRateThreshold: 0.01}).Key("fp")
	if a != b {
		t.Error("error_rate_threshold leaked into the request key")
	}
}
