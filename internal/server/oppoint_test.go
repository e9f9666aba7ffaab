package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/core"
)

// fakeAnalyzeAt builds a deterministic operating-point analyzer: the error
// rate grows quadratically in the over-nominal ratio, steeper at lower
// voltage — monotone in ratio at fixed condition, exactly what
// core.SelectOperatingPoint assumes. Reports carry an estimate, so the
// search's risk summary works.
func fakeAnalyzeAt() AnalyzeAtFunc {
	return func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
		n := cond.Norm()
		droop := (cell.NominalVoltageV - n.VoltageV) / cell.NominalVoltageV
		x := (ratio - 1) * 10 * (1 + 4*droop)
		if x < 0 {
			x = 0
		}
		rate := x * x / 100
		if rate > 1 {
			rate = 1
		}
		rep := fakeReport(benchmark)
		rep.Estimate.LambdaMean = rate * rep.Estimate.TotalInsts
		return rep, nil
	}
}

// postOppoint posts one oppoint request and returns the status and raw body.
func postOppoint(ctx context.Context, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/oppoint", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// oppointGoldenRequest drives two voltages across a 5-ratio grid. With the
// fake's rate law and target 0.01, both searches settle at ratio 1.05 (the
// 1.1 V probe at 1.1 lands a hair over target in float64) in exactly 4
// evals, and the frontier keeps only the 0.9 V point — same period, lower
// voltage dominates.
const oppointGoldenRequest = `{
	"benchmark": "typeset",
	"target_error_rate": 0.01,
	"voltages": [1.1, 0.9],
	"temps_c": [25],
	"min_ratio": 1.0,
	"max_ratio": 1.2,
	"steps": 4
}`

// TestOppointGolden pins the full POST /v1/oppoint response body — field
// names, point ordering, frontier membership, and the numeric outcomes of
// the deterministic bisection — against a golden literal. A schema or
// semantics drift must be deliberate enough to re-derive these bytes.
func TestOppointGolden(t *testing.T) {
	ctx := context.Background()
	calls := 0
	inner := fakeAnalyzeAt()
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			t.Error("plain Analyze reached for an override sub-request")
			return fakeReport(b), nil
		},
		AnalyzeAt: func(ctx context.Context, b string, n int, o core.AnalyzeOpts, c cell.OperatingCondition, r float64) (*core.Report, error) {
			calls++
			return inner(ctx, b, n, o, c, r)
		},
	}
	_, ts := newTestServer(t, ctx, cfg)

	code, raw, err := postOppoint(ctx, ts.URL, oppointGoldenRequest)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	const goldenPath = "testdata/oppoint_golden.json"
	if os.Getenv("TSPERR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (set TSPERR_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if string(raw) != string(golden) {
		t.Errorf("response drifted from golden (TSPERR_UPDATE_GOLDEN=1 regenerates):\n got: %s\nwant: %s", raw, golden)
	}
	if calls != 8 {
		t.Errorf("expected 8 exact computations (4 evals x 2 conditions), got %d", calls)
	}

	// A warm re-run must answer every probe from the LRU: identical points
	// and frontier, all 8 sub-requests cache hits, no new computations.
	code, raw2, err := postOppoint(ctx, ts.URL, oppointGoldenRequest)
	if err != nil || code != http.StatusOK {
		t.Fatalf("warm rerun: status %d err %v", code, err)
	}
	var cold, warm OppointResponse
	if err := json.Unmarshal(raw, &cold); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw2, &warm); err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Errorf("warm rerun recomputed: %d calls", calls)
	}
	if warm.CacheHits != warm.Subrequests || warm.Subrequests != cold.Subrequests {
		t.Errorf("warm rerun: %d/%d cache hits, cold issued %d", warm.CacheHits, warm.Subrequests, cold.Subrequests)
	}
	coldPts, _ := json.Marshal(cold.Points)
	warmPts, _ := json.Marshal(warm.Points)
	if string(coldPts) != string(warmPts) {
		t.Errorf("cache warmth changed the points:\ncold %s\nwarm %s", coldPts, warmPts)
	}

	// Grid-order invariance: reversing the voltage list must not change the
	// points or frontier (conditions are canonicalized before searching).
	rev := strings.Replace(oppointGoldenRequest, "[1.1, 0.9]", "[0.9, 1.1]", 1)
	code, raw3, err := postOppoint(ctx, ts.URL, rev)
	if err != nil || code != http.StatusOK {
		t.Fatalf("reversed grid: status %d err %v", code, err)
	}
	var revResp OppointResponse
	if err := json.Unmarshal(raw3, &revResp); err != nil {
		t.Fatal(err)
	}
	revPts, _ := json.Marshal(revResp.Points)
	if string(revPts) != string(coldPts) {
		t.Errorf("grid order changed the points:\nfwd %s\nrev %s", coldPts, revPts)
	}

	m := scrapeMetrics(t, ts.URL)
	if got := m["tsperrd_oppoint_searches_total"]; got != 6 {
		t.Errorf("oppoint_searches_total = %g, want 6", got)
	}
	if got := m["tsperrd_oppoint_subrequests_total"]; got != 24 {
		t.Errorf("oppoint_subrequests_total = %g, want 24", got)
	}
	if got := m["tsperrd_oppoint_subrequest_cache_hits_total"]; got != 16 {
		t.Errorf("oppoint_subrequest_cache_hits_total = %g, want 16", got)
	}
	if got := m["tsperrd_oppoint_infeasible_total"]; got != 0 {
		t.Errorf("oppoint_infeasible_total = %g, want 0", got)
	}
}

// TestOppointInfeasible pins the infeasible shape: when even the minimum
// ratio exceeds the target, the point reports Feasible=false after exactly
// one eval, stays off the frontier, and bumps the infeasible counter.
func TestOppointInfeasible(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		AnalyzeAt: fakeAnalyzeAt(),
	}
	_, ts := newTestServer(t, ctx, cfg)
	body := `{"benchmark": "typeset", "target_error_rate": 0.001, "voltages": [0.9], "min_ratio": 1.05, "max_ratio": 1.2, "steps": 4}`
	code, raw, err := postOppoint(ctx, ts.URL, body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("status %d err %v body %s", code, err, raw)
	}
	var resp OppointResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 1 || len(resp.Frontier) != 0 {
		t.Fatalf("points %d frontier %d, want 1 and 0", len(resp.Points), len(resp.Frontier))
	}
	p := resp.Points[0]
	if p.Feasible || p.Evals != 1 {
		t.Errorf("infeasible point: feasible=%t evals=%d", p.Feasible, p.Evals)
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m["tsperrd_oppoint_infeasible_total"]; got != 1 {
		t.Errorf("oppoint_infeasible_total = %g, want 1", got)
	}
}

// TestOppointValidation sweeps the request envelope's rejection shapes.
func TestOppointValidation(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
		AnalyzeAt: fakeAnalyzeAt(),
	}
	_, ts := newTestServer(t, ctx, cfg)
	for name, body := range map[string]string{
		"no benchmark":   `{"target_error_rate": 0.1}`,
		"bad target":     `{"benchmark": "x", "target_error_rate": 1.5}`,
		"bad voltage":    `{"benchmark": "x", "target_error_rate": 0.1, "voltages": [2.5]}`,
		"inverted range": `{"benchmark": "x", "target_error_rate": 0.1, "min_ratio": 1.3, "max_ratio": 1.1}`,
		"steps cap":      `{"benchmark": "x", "target_error_rate": 0.1, "steps": 100000}`,
		"grid cap":       fmt.Sprintf(`{"benchmark": "x", "target_error_rate": 0.1, "voltages": %s}`, bigVoltageList()),
		"unknown field":  `{"benchmark": "x", "target_error_rate": 0.1, "voltagez": [1.0]}`,
	} {
		code, raw, err := postOppoint(ctx, ts.URL, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, code, raw)
		}
	}
}

// bigVoltageList renders a voltage list one past the condition-grid cap.
func bigVoltageList() string {
	vs := make([]string, maxOppointConditions+1)
	for i := range vs {
		vs[i] = fmt.Sprintf("%.3f", 0.7+float64(i)*0.01)
	}
	return "[" + strings.Join(vs, ",") + "]"
}

// TestEstimateOverrideRouting pins the /v1/estimate side of operating-point
// overrides: a request with voltage/freq_ratio fields executes through
// AnalyzeAt with those values, and a daemon without AnalyzeAt rejects it at
// validation instead of serving the wrong point.
func TestEstimateOverrideRouting(t *testing.T) {
	ctx := context.Background()
	var gotCond cell.OperatingCondition
	var gotRatio float64
	cfg := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			t.Error("override request reached the default-point Analyze")
			return fakeReport(b), nil
		},
		AnalyzeAt: func(ctx context.Context, b string, n int, o core.AnalyzeOpts, c cell.OperatingCondition, r float64) (*core.Report, error) {
			gotCond, gotRatio = c, r
			return fakeReport(b), nil
		},
	}
	_, ts := newTestServer(t, ctx, cfg)
	code, m, err := postEstimate(ctx, ts.URL, `{"benchmark": "typeset", "voltage": 0.95, "temp_c": 85, "freq_ratio": 1.1}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("status %d err %v body %v", code, err, m)
	}
	want := cell.OperatingCondition{VoltageV: 0.95, TempC: 85}
	if !gotCond.Equal(want) || gotRatio != 1.1 {
		t.Errorf("AnalyzeAt saw %v ratio %v, want %v ratio 1.1", gotCond, gotRatio, want)
	}

	// Same override against a daemon without AnalyzeAt: 400, not a silent
	// default-point answer.
	bare := Config{
		Analyze: func(ctx context.Context, b string, n int, o core.AnalyzeOpts) (*core.Report, error) {
			return fakeReport(b), nil
		},
	}
	_, bts := newTestServer(t, ctx, bare)
	code, _, err = postEstimate(ctx, bts.URL, `{"benchmark": "typeset", "voltage": 0.95}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest {
		t.Errorf("override on bare daemon: status %d, want 400", code)
	}
	// And /v1/oppoint is not even mounted there.
	code, _, err = postOppoint(ctx, bts.URL, `{"benchmark": "typeset", "target_error_rate": 0.1}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		t.Errorf("oppoint on bare daemon: status %d, want unmounted", code)
	}
}
