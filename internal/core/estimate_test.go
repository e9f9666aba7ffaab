package core

import (
	"context"
	"math"
	"testing"

	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/dist"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/numeric"
)

// synthScenarios builds a straight-line program with hand-set probabilities
// so the statistics can be checked analytically.
func synthScenarios(t *testing.T, perScenarioP [][]float64, execs int64) (*cfg.Graph, []Scenario) {
	t.Helper()
	src := ""
	for range perScenarioP[0] {
		src += "add r1, r1, r2\n"
	}
	src += "halt\n"
	p, err := isa.Assemble("synth", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Insts)
	var scenarios []Scenario
	for _, probs := range perScenarioP {
		pr := cfg.NewProfile(g)
		for b := range pr.ExecCount {
			pr.ExecCount[b] = execs
		}
		pr.InstCount = execs * int64(n)
		marg := &errormodel.Marginals{
			P:   make([]float64, n),
			In:  make([]float64, len(g.Blocks)),
			Out: make([]float64, len(g.Blocks)),
		}
		cond := &errormodel.Conditionals{PC: make([]float64, n), PE: make([]float64, n)}
		for i, q := range probs {
			marg.P[i] = q
			cond.PC[i] = q
			cond.PE[i] = q
		}
		scenarios = append(scenarios, Scenario{Profile: pr, Marginals: marg, Cond: cond})
	}
	return g, scenarios
}

func TestEstimateLambdaMoments(t *testing.T) {
	// Two scenarios with different probabilities: lambda = execs * sum(p).
	g, sc := synthScenarios(t, [][]float64{
		{0.001, 0.002, 0.003, 0},
		{0.002, 0.004, 0.006, 0},
	}, 1000)
	e, err := NewEstimate(context.Background(), g, sc)
	if err != nil {
		t.Fatal(err)
	}
	want0 := 1000 * 0.006
	want1 := 1000 * 0.012
	if math.Abs(e.LambdaSamples[0]-want0) > 1e-9 || math.Abs(e.LambdaSamples[1]-want1) > 1e-9 {
		t.Errorf("lambda samples = %v", e.LambdaSamples)
	}
	if math.Abs(e.LambdaMean-9) > 1e-9 {
		t.Errorf("lambda mean = %v", e.LambdaMean)
	}
	if math.Abs(e.LambdaStd-3) > 1e-9 {
		t.Errorf("lambda std = %v", e.LambdaStd)
	}
	if math.Abs(e.MeanErrorRate()-9.0/5000) > 1e-12 {
		t.Errorf("mean error rate = %v", e.MeanErrorRate())
	}
}

func TestEstimateRequiresScenarios(t *testing.T) {
	g, _ := synthScenarios(t, [][]float64{{0.1}}, 10)
	if _, err := NewEstimate(context.Background(), g, nil); err == nil {
		t.Error("empty scenario list should fail")
	}
}

func TestErrorCountCDFDegenerate(t *testing.T) {
	// Single scenario => LambdaStd 0 => pure Poisson CDF.
	g, sc := synthScenarios(t, [][]float64{{0.005, 0.005, 0, 0}}, 2000)
	e, err := NewEstimate(context.Background(), g, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Poisson{Lambda: 20}.CDF(20)
	if got := e.ErrorCountCDF(20); math.Abs(got-want) > 1e-9 {
		t.Errorf("degenerate CDF = %v, want %v", got, want)
	}
}

func TestErrorCountCDFMixture(t *testing.T) {
	g, sc := synthScenarios(t, [][]float64{
		{0.004, 0, 0, 0}, {0.006, 0, 0, 0}, {0.005, 0, 0, 0},
	}, 10000)
	e, err := NewEstimate(context.Background(), g, sc)
	if err != nil {
		t.Fatal(err)
	}
	// CDF must be monotone from ~0 to ~1.
	prev := -1.0
	for k := 0.0; k <= 120; k += 5 {
		c := e.ErrorCountCDF(k)
		if c < prev-1e-9 {
			t.Fatalf("CDF not monotone at %v", k)
		}
		prev = c
	}
	if e.ErrorCountCDF(0) > 0.01 {
		t.Error("CDF near zero errors should be tiny")
	}
	if e.ErrorCountCDF(120) < 0.99 {
		t.Error("CDF far right should approach 1")
	}
	// At the mean it should be near 0.5.
	if c := e.ErrorCountCDF(e.LambdaMean); math.Abs(c-0.5) > 0.08 {
		t.Errorf("CDF at mean = %v", c)
	}
}

func TestCDFBoundsBracket(t *testing.T) {
	g, sc := synthScenarios(t, [][]float64{
		{0.004, 0.001, 0, 0}, {0.006, 0.002, 0, 0},
	}, 5000)
	e, err := NewEstimate(context.Background(), g, sc)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0.0; k < 80; k += 4 {
		lo, hi := e.ErrorCountCDFBounds(k)
		c := e.ErrorCountCDF(k)
		if !(lo <= c+1e-12 && c <= hi+1e-12) {
			t.Fatalf("bounds do not bracket at %v: %v <= %v <= %v", k, lo, c, hi)
		}
		if lo < 0 || hi > 1 {
			t.Fatal("bounds must clamp to [0,1]")
		}
	}
}

func TestErrorRateCDFMatchesCountCDF(t *testing.T) {
	g, sc := synthScenarios(t, [][]float64{{0.002, 0.004, 0, 0}}, 3000)
	e, _ := NewEstimate(context.Background(), g, sc)
	rate := 0.0015
	if math.Abs(e.ErrorRateCDF(rate)-e.ErrorCountCDF(rate*e.TotalInsts)) > 1e-12 {
		t.Error("rate CDF should be the count CDF at rate*n")
	}
	lo1, hi1 := e.ErrorRateCDFBounds(rate)
	lo2, hi2 := e.ErrorCountCDFBounds(rate * e.TotalInsts)
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("rate bounds should match count bounds")
	}
}

func TestChenSteinBoundScalesWithDependence(t *testing.T) {
	// Higher conditional-on-error probabilities inflate b2 and the bound.
	build := func(pe float64) *Estimate {
		g, sc := synthScenarios(t, [][]float64{
			{0.003, 0.003, 0.003, 0.003}, {0.004, 0.004, 0.004, 0.004},
		}, 100000)
		for _, s := range sc {
			for i := range s.Cond.PE {
				s.Cond.PE[i] = pe
			}
		}
		e, err := NewEstimate(context.Background(), g, sc)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	weak := build(0.003)
	strong := build(0.5)
	if strong.DKCount <= weak.DKCount {
		t.Errorf("stronger inter-instruction dependence must widen the bound: %v vs %v",
			strong.DKCount, weak.DKCount)
	}
	if weak.B2 >= strong.B2 {
		t.Error("b2 should grow with p^e")
	}
}

func TestSteinBoundShrinksWithMoreInstructions(t *testing.T) {
	// More (equally-sized) independent contributions => better normal
	// approximation => smaller d_K(lambda, lambda-bar).
	// Each scenario shifts all instructions together (a common data-variation
	// component, as input datasets do in the real model) plus small
	// independent noise.
	mk := func(n int) *Estimate {
		probs := make([][]float64, 8)
		rng := numeric.NewRNG(99)
		for r := range probs {
			base := 0.002 + 0.002*rng.Float64()
			probs[r] = make([]float64, n)
			for i := range probs[r] {
				probs[r][i] = base + 0.0002*rng.Float64()
			}
		}
		g, sc := synthScenarios(t, probs, 1000)
		e, err := NewEstimate(context.Background(), g, sc)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	small := mk(6)
	large := mk(2048)
	if large.DKLambda >= small.DKLambda {
		t.Errorf("Stein bound should shrink with program size: %v vs %v",
			large.DKLambda, small.DKLambda)
	}
	if large.DKLambda >= 1 {
		t.Errorf("large-program Stein bound should be informative, got %v", large.DKLambda)
	}
}

func TestErrorRateQuantileInvertsTheCDF(t *testing.T) {
	g, sc := synthScenarios(t, [][]float64{
		{0.004, 0.001, 0, 0}, {0.005, 0.002, 0, 0}, {0.006, 0.001, 0, 0},
	}, 8000)
	e, err := NewEstimate(context.Background(), g, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		r := e.ErrorRateQuantile(p)
		if got := e.ErrorRateCDF(r); math.Abs(got-p) > 0.03 {
			t.Errorf("CDF(quantile(%v)) = %v", p, got)
		}
	}
	if e.ErrorRateQuantile(0.9) <= e.ErrorRateQuantile(0.1) {
		t.Error("quantiles must be increasing")
	}
	if e.ErrorRateQuantile(0) != 0 {
		t.Error("p=0 quantile should be 0")
	}
	if e.ErrorRateQuantile(1) <= e.MeanErrorRate() {
		t.Error("p=1 quantile should exceed the mean")
	}
}

func TestStdErrorRateIncludesPoissonTerm(t *testing.T) {
	g, sc := synthScenarios(t, [][]float64{{0.004, 0, 0, 0}}, 10000)
	e, _ := NewEstimate(context.Background(), g, sc)
	// Single scenario: LambdaStd = 0, so SD comes from the Poisson variance.
	want := math.Sqrt(e.LambdaMean) / e.TotalInsts
	if math.Abs(e.StdErrorRate()-want) > 1e-15 {
		t.Errorf("std error rate = %v, want %v", e.StdErrorRate(), want)
	}
}

// TestEstimateRejectsNonFinite checks that scenarios whose marginal
// probabilities are not finite yield an error, which AnalyzeWithOpts reports
// in the estimate phase, instead of an estimate with a NaN or infinite λ.
func TestEstimateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		g, sc := synthScenarios(t, [][]float64{
			{0.001, bad, 0.003, 0},
			{0.002, 0.004, 0.006, 0},
		}, 1000)
		if e, err := NewEstimate(context.Background(), g, sc); err == nil {
			t.Errorf("marginal %v: estimate with lambda mean %v, want an error", bad, e.LambdaMean)
		}
	}
}

func TestFrameworkPerfModel(t *testing.T) {
	f := &Framework{Machine: &errormodel.Machine{Opts: errormodel.DefaultOptions()}}
	pm := f.PerfModel()
	if pm.FreqRatio != 1.15 || pm.Scheme != cpu.ReplayHalfFrequency {
		t.Errorf("perf model misconfigured: %+v", pm)
	}
}
