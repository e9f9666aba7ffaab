package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/harness"
	"tsperr/internal/server"
)

// TestOppointMatchesDaemon runs one search through tsperr -oppoint and
// through tsperrd's POST /v1/oppoint, at nominal and at a droop corner, and
// requires every field the two documents share to agree bit for bit.
func TestOppointMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds frameworks at two operating conditions")
	}
	const (
		bench     = "typeset"
		scenarios = 1
		steps     = 4
		target    = 0.02
		minRatio  = 1.0
		maxRatio  = 1.3
	)
	srv, err := server.New(context.Background(), server.Config{
		Analyze:   harness.AnalyzeWithOpts,
		AnalyzeAt: harness.AnalyzeAtPoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetReady()
	t.Cleanup(srv.Abort)

	flt := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	// A mild droop corner: its cold build is fast enough for the race run.
	for _, cond := range []cell.OperatingCondition{{}, {VoltageV: 1.08, TempC: 40}} {
		code, stdout, stderr := runSelf(t, "-oppoint", "-json", "-model-cache=false",
			"-scenarios", strconv.Itoa(scenarios), "-steps", strconv.Itoa(steps),
			"-target", flt(target), "-min-ratio", flt(minRatio), "-max-ratio", flt(maxRatio),
			"-voltage", flt(cond.VoltageV), "-temp", flt(cond.TempC), bench)
		if code != 0 {
			t.Fatalf("%s: exit = %d\nstderr: %s", cond, code, stderr)
		}
		var cli oppointJSON
		if err := json.Unmarshal([]byte(stdout), &cli); err != nil {
			t.Fatalf("%s: decode CLI output: %v\n%s", cond, err, stdout)
		}

		body, err := json.Marshal(server.OppointRequest{
			Benchmark:       bench,
			Scenarios:       scenarios,
			TargetErrorRate: target,
			Voltages:        []float64{cond.VoltageV},
			Temps:           []float64{cond.TempC},
			MinRatio:        minRatio,
			MaxRatio:        maxRatio,
			Steps:           steps,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/oppoint", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: daemon status %d: %s", cond, rec.Code, rec.Body)
		}
		var resp server.OppointResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Points) != 1 {
			t.Fatalf("%s: daemon returned %d points, want 1", cond, len(resp.Points))
		}
		pt := resp.Points[0]
		if cli.Benchmark != resp.Benchmark || cli.Feasible != pt.Feasible || cli.Evals != pt.Evals {
			t.Errorf("%s: CLI (%s, feasible %v, %d evals) != daemon (%s, feasible %v, %d evals)",
				cond, cli.Benchmark, cli.Feasible, cli.Evals, resp.Benchmark, pt.Feasible, pt.Evals)
		}
		for _, f := range []struct {
			name      string
			cli, daem float64
		}{
			{"voltage", cli.VoltageV, pt.VoltageV},
			{"temp_c", cli.TempC, pt.TempC},
			{"target_error_rate", cli.TargetErrorRate, resp.TargetErrorRate},
			{"base_freq_mhz", cli.BaseFreqMHz, resp.BaseFreqMHz},
			{"ratio", cli.Ratio, pt.Ratio},
			{"period_ps", cli.PeriodPs, pt.PeriodPs},
			{"freq_mhz", cli.FreqMHz, pt.FreqMHz},
			{"error_rate", cli.ErrorRate, pt.ErrorRate},
			{"speedup", cli.Speedup, pt.Speedup},
			{"cdf_below_break_even", cli.CDFBelowBreakEven, pt.CDFBelowBreakEven},
		} {
			if math.Float64bits(f.cli) != math.Float64bits(f.daem) {
				t.Errorf("%s: %s: CLI %v != daemon %v", cond, f.name, f.cli, f.daem)
			}
		}
		t.Logf("%s: ratio %v, error rate %v, %d evals", cond, pt.Ratio, pt.ErrorRate, pt.Evals)
	}
}
