package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tsperr/internal/numeric"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenReport is a fully populated degraded report with hand-set fields, so
// the golden bytes pin the wire schema itself rather than any pipeline
// output.
func goldenReport() *Report {
	return &Report{
		Name:            "golden",
		Instructions:    120000,
		BasicBlocks:     14,
		Training:        1502300 * time.Microsecond,
		Simulation:      250750 * time.Microsecond,
		Scenarios:       make([]Scenario, 3),
		Degraded:        true,
		FailedScenarios: 1,
		Failures: &ScenarioError{
			Benchmark: "golden", Scenario: 2, Phase: PhaseSimulation,
			Attempts: 2, Err: os.ErrDeadlineExceeded,
		},
		Estimate: &Estimate{
			LambdaMean: 40,
			LambdaStd:  4,
			TotalInsts: 1e6,
			DKLambda:   0.0125,
			DKCount:    0.03,
			B1:         0.5,
			B2:         0.25,
		},
		MC: &MCValidation{
			Trials: 1500, Chunks: 6, Seed: 11,
			Mean: 39.5, Std: 7.1, LambdaRef: 40,
			MaxCDFDistance: 0.031, Bound: 0.107, Within: true,
			UnscaledReference: true,
		},
	}
}

// The report wire schema is shared verbatim by tsperrd, `tsperr -json`, and
// `tsperr report -json`; this golden pins it. Regenerate deliberately with
// `go test ./internal/core -run TestReportJSONGolden -update` after a schema
// change, and treat the diff as an API change for every service client.
func TestReportJSONGolden(t *testing.T) {
	raw, err := json.Marshal(goldenReport())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// A clean report omits the degradation fields entirely, and failure trees
// flatten to one line per scenario.
func TestReportJSONDegradationFields(t *testing.T) {
	rep := goldenReport()
	rep.Degraded = false
	rep.FailedScenarios = 0
	rep.Failures = nil
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"degraded", "failed_scenarios", "failures"} {
		if _, ok := m[field]; ok {
			t.Errorf("clean report must omit %q", field)
		}
	}

	deg := goldenReport()
	raw, err = json.Marshal(deg)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	failures, ok := m["failures"].([]any)
	if !ok || len(failures) != 1 {
		t.Fatalf("failures = %v, want one phase-tagged line", m["failures"])
	}
	line, _ := failures[0].(string)
	for _, frag := range []string{"golden", "scenario 2", "simulation", "2 attempts"} {
		if !bytes.Contains([]byte(line), []byte(frag)) {
			t.Errorf("failure line %q missing %q", line, frag)
		}
	}
}

// TestReportJSONRoundTrip pins the round-trip invariant a decoding client
// leans on: decode a report's wire bytes into a Report, re-marshal, and the
// bytes are identical — scenario count, failure lines, durations, estimate, and
// Monte Carlo block all survive even though the decoded Report has no
// Scenario values or error tree.
func TestReportJSONRoundTrip(t *testing.T) {
	for _, rep := range []*Report{goldenReport(), func() *Report {
		r := goldenReport()
		r.Degraded = false
		r.FailedScenarios = 0
		r.Failures = nil
		r.MC = nil
		return r
	}()} {
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Report
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatal(err)
		}
		if len(decoded.Scenarios) != 0 {
			t.Fatalf("decode fabricated %d Scenario values", len(decoded.Scenarios))
		}
		second, err := json.Marshal(&decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("round trip drifted.\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	}
}

// A decoded estimate must answer the derived queries identically to the
// original: the wire schema carries the complete inputs of the Equation (14)
// quadrature.
func TestEstimateJSONRoundTripQueries(t *testing.T) {
	orig := goldenReport().Estimate
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Estimate
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.MeanErrorRate() != orig.MeanErrorRate() {
		t.Errorf("decoded mean error rate diverged from original")
	}
	if dec.ErrorRateQuantile(0.95) != orig.ErrorRateQuantile(0.95) {
		t.Errorf("decoded quantile diverged from original")
	}
	if dec.ErrorCountCDF(42) != orig.ErrorCountCDF(42) {
		t.Errorf("decoded count CDF diverged from original")
	}
}

// The estimate encoding must agree with the computed accessors, so service
// clients can trust the flattened numbers.
func TestEstimateJSONMatchesAccessors(t *testing.T) {
	e := goldenReport().Estimate
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"lambda_mean":     e.LambdaMean,
		"mean_error_rate": e.MeanErrorRate(),
		"std_error_rate":  e.StdErrorRate(),
		"p95_error_rate":  e.ErrorRateQuantile(0.95),
		"dk_lambda":       e.DKLambda,
	}
	for field, want := range checks {
		if !numeric.ApproxEq(m[field], want, 1e-15) {
			t.Errorf("%s = %v, want %v", field, m[field], want)
		}
	}
	if m["p50_error_rate"] >= m["p95_error_rate"] || m["p95_error_rate"] >= m["p99_error_rate"] {
		t.Errorf("quantiles not increasing: %v / %v / %v",
			m["p50_error_rate"], m["p95_error_rate"], m["p99_error_rate"])
	}
}

// A cached report's estimate is encoded by concurrent cache hits: the
// once-per-estimate quadrature memo must hand every encoder the same bytes
// (and, under -race, build without a data race).
func TestEstimateJSONConcurrentEncodes(t *testing.T) {
	e := &Estimate{LambdaMean: 2443, LambdaStd: 81, TotalInsts: 1.16e6}
	want, err := json.Marshal(&Estimate{LambdaMean: 2443, LambdaStd: 81, TotalInsts: 1.16e6})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = json.Marshal(e)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("encode %d: %s, want %s", i, g, want)
		}
	}
}

// Summary drops the solver state but keeps the wire bytes.
func TestReportSummaryMarshalsIdentically(t *testing.T) {
	for _, rep := range []*Report{goldenReport(), {Name: "plain", Scenarios: make([]Scenario, 4), Estimate: &Estimate{LambdaMean: 9, LambdaStd: 2, TotalInsts: 1e4}}} {
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := rep.Summary()
		if sum.Scenarios != nil || sum.Graph != nil {
			t.Errorf("%s: summary keeps solver state", rep.Name)
		}
		got, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: summary marshals to\n%s\nwant\n%s", rep.Name, got, want)
		}
	}
}
