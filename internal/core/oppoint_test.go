package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
)

// gridRatio is the search's grid arithmetic. lo and hi must be runtime
// values so the floats fold exactly as in SelectOperatingPoint (typed
// constants would be subtracted in exact precision at compile time).
func gridRatio(lo, hi float64, steps, i int) float64 {
	if i == steps {
		return hi
	}
	return lo + (hi-lo)*float64(i)/float64(steps)
}

// summaryAt is the operating-point summary of one report at one ratio, the
// value SelectOperatingPoint must return for the report that decided it.
func summaryAt(rep *Report, ratio float64) (errRate, speedup, cdf float64) {
	errRate = rep.Estimate.MeanErrorRate()
	pm := cpu.PerfModel{FreqRatio: ratio, BaseCPI: 1, Scheme: cpu.ReplayHalfFrequency}
	return errRate, pm.Speedup(errRate), rep.Estimate.ErrorRateCDF(pm.BreakEvenErrorRate())
}

// checkSummary asserts, bit for bit, that pt summarizes rep at pt.Ratio.
func checkSummary(t *testing.T, pt OperatingPoint, rep *Report) {
	t.Helper()
	er, sp, cdf := summaryAt(rep, pt.Ratio)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"error rate", pt.ErrorRate, er}, {"speedup", pt.Speedup, sp}, {"P(profitable)", pt.CDFBelowBreakEven, cdf}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s %v, deciding report gives %v", c.name, c.got, c.want)
		}
	}
}

func TestSelectOperatingPoint(t *testing.T) {
	f := testFramework(t)
	ctx := context.Background()
	prog := isa.MustAssemble("sumloop", fwProg)
	spec := ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: 2}
	analyze := func(ctx context.Context, ratio float64) (*Report, error) {
		return f.AnalyzeAtRatio(ctx, "sumloop", spec, ratio, AnalyzeOpts{})
	}
	lo, hi := 1.05, 1.22
	const steps = 4
	reps := make([]*Report, steps+1)
	for i := range reps {
		rep, err := analyze(ctx, gridRatio(lo, hi, steps, i))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	// Error rate must be nondecreasing in frequency.
	for i := 1; i <= steps; i++ {
		if reps[i].Estimate.MeanErrorRate() < reps[i-1].Estimate.MeanErrorRate()-1e-12 {
			t.Fatalf("error rate fell with frequency at grid index %d", i)
		}
	}
	// At the lowest ratio, nearly no errors: speedup ~= ratio.
	if _, sp, _ := summaryAt(reps[0], lo); sp < lo*0.99 {
		t.Errorf("low ratio should be almost error-free: speedup %v", sp)
	}
	// A target between the rates at grid indices 2 and 3 must stop at 2.
	r2, r3 := reps[2].Estimate.MeanErrorRate(), reps[3].Estimate.MeanErrorRate()
	if !(r2 < r3) {
		t.Fatalf("fixture has no knee between grid indices 2 and 3: rates %v, %v", r2, r3)
	}
	pt, err := SelectOperatingPoint(ctx, lo, hi, steps, (r2+r3)/2, analyze)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Feasible || math.Float64bits(pt.Ratio) != math.Float64bits(gridRatio(lo, hi, steps, 2)) {
		t.Fatalf("got %+v, want the feasible grid ratio %v", pt, gridRatio(lo, hi, steps, 2))
	}
	checkSummary(t, pt, reps[2])
	if pt.CDFBelowBreakEven < 0 || pt.CDFBelowBreakEven > 1 {
		t.Errorf("risk out of range: %+v", pt)
	}
	if pt.Evals != 4 { // lo, hi, then indices 2 and 3
		t.Errorf("evals = %d, want 4", pt.Evals)
	}
}

func TestSelectOperatingPointValidation(t *testing.T) {
	ctx := context.Background()
	called := false
	analyze := func(context.Context, float64) (*Report, error) {
		called = true
		return rateReport(0), nil
	}
	for _, bad := range []struct {
		lo, hi float64
		steps  int
		target float64
	}{
		{0, 1, 4, 0.5},
		{math.NaN(), 1.4, 4, 0.5},
		{1.2, 1.1, 4, 0.5},
		{1, math.Inf(1), 4, 0.5},
		{1, 1.4, 0, 0.5},
		{1, 1.4, MaxBisectSteps + 1, 0.5},
		{1, 1.4, 4, -0.1},
		{1, 1.4, 4, 1.1},
		{1, 1.4, 4, math.NaN()},
	} {
		if _, err := SelectOperatingPoint(ctx, bad.lo, bad.hi, bad.steps, bad.target, analyze); !errors.Is(err, ErrBadSearch) {
			t.Errorf("SelectOperatingPoint(%+v) = %v, want ErrBadSearch", bad, err)
		}
	}
	if called {
		t.Error("analyze ran for a rejected search")
	}

	// A report without an estimate is an analysis failure, not a bad search.
	_, err := SelectOperatingPoint(ctx, 1, 1.4, 4, 0.5,
		func(context.Context, float64) (*Report, error) { return &Report{}, nil })
	if err == nil || errors.Is(err, ErrBadSearch) {
		t.Errorf("estimate-less report: err = %v", err)
	}

	f := testFramework(t)
	prog := isa.MustAssemble("h", "halt\n")
	if _, err := f.AnalyzeAtRatio(ctx, "h", ProgramSpec{Prog: prog, Scenarios: 1}, -1, AnalyzeOpts{}); err == nil {
		t.Error("negative ratio should fail")
	}
}

// rateReport returns a synthetic report whose mean error rate is rate. Over
// a thousand instructions lambda stays small, so P(profitable) lies strictly
// inside (0, 1) near break-even and differs from report to report.
func rateReport(rate float64) *Report {
	const insts = 1000
	lambda := rate * insts
	return &Report{Estimate: &Estimate{LambdaMean: lambda, LambdaStd: lambda / 4, TotalInsts: insts}}
}

// knee is a smooth monotone rate curve with a knee past ratio 1.
func knee(r float64) float64 { return math.Min(1, math.Pow(math.Max(0, r-1), 3)*2) }

// TestSelectOperatingPointSummary pins where the returned point's numbers
// come from: the report of the probe that decided the search, in each of
// its three outcomes.
func TestSelectOperatingPointSummary(t *testing.T) {
	lo, hi := 1.0, 1.4
	for _, tc := range []struct {
		name     string
		lo       float64
		target   float64
		feasible bool
		evals    int
	}{
		// Probes 0, 8, 4, 6, 5: the last one misses the target and grid
		// index 4 (ratio 1.2) decides.
		{"bisection", lo, 0.02, true, 5},
		{"all feasible", lo, 1, true, 2},
		{"infeasible low end", 1.3, 0.001, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var probes []*Report
			var ratios []float64
			analyze := func(_ context.Context, r float64) (*Report, error) {
				rep := rateReport(knee(r))
				probes, ratios = append(probes, rep), append(ratios, r)
				return rep, nil
			}
			pt, err := SelectOperatingPoint(context.Background(), tc.lo, hi, 8, tc.target, analyze)
			if err != nil {
				t.Fatal(err)
			}
			if pt.Feasible != tc.feasible || pt.Evals != tc.evals || pt.Evals != len(probes) {
				t.Fatalf("got %+v after %d probes, want feasible %v in %d evals", pt, len(probes), tc.feasible, tc.evals)
			}
			deciding := -1
			for i, r := range ratios {
				if math.Float64bits(r) == math.Float64bits(pt.Ratio) {
					deciding = i
				}
			}
			if deciding < 0 {
				t.Fatalf("ratio %v was never probed: %v", pt.Ratio, ratios)
			}
			if tc.name == "bisection" && deciding == len(probes)-1 {
				t.Fatalf("fixture: the deciding probe is the last one: %v", ratios)
			}
			if cdf := pt.CDFBelowBreakEven; tc.feasible && !(cdf > 0 && cdf < 1) {
				t.Errorf("fixture: P(profitable) %v does not tell reports apart", cdf)
			}
			checkSummary(t, pt, probes[deciding])
		})
	}
}

// stableReportJSON marshals a report with the wall-clock timing fields
// zeroed, leaving only the deterministic analysis outputs — the byte string
// two runs of the same deterministic pipeline must agree on exactly.
func stableReportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	c := *rep
	c.Training, c.Simulation = 0, 0
	buf, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestSweepRestoreBitIdentical is the regression test for a ratio sweep
// leaving the machine re-targeted at the last evaluated ratio: an Analyze
// after a sweep of AnalyzeAtRatio calls must be bit-identical to one on a
// framework that never swept.
func TestSweepRestoreBitIdentical(t *testing.T) {
	f := testFramework(t)
	ctx := context.Background()
	prog := isa.MustAssemble("sumloop", fwProg)
	spec := ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: 2}

	before, err := f.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := stableReportJSON(t, before)
	wantPeriod := math.Float64bits(f.Machine.WorkingPeriodPs)
	wantDP := f.Datapath

	for _, ratio := range []float64{1.05, 1.22} {
		if _, err := f.AnalyzeAtRatio(ctx, "sumloop", spec, ratio, AnalyzeOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	if got := math.Float64bits(f.Machine.WorkingPeriodPs); got != wantPeriod {
		t.Fatalf("working period not restored: bits %x != %x", got, wantPeriod)
	}
	if f.Datapath != wantDP {
		t.Fatal("datapath model not restored to the pre-sweep instance")
	}
	after, err := f.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := stableReportJSON(t, after); got != wantJSON {
		t.Errorf("post-sweep report differs from pre-sweep:\n pre: %s\npost: %s", wantJSON, got)
	}
}

// TestAnalyzeAtRatioRestoresOnError pins the restore on the failure path: a
// scenario that fails at the re-targeted ratio must still leave the original
// working period and datapath in place.
func TestAnalyzeAtRatioRestoresOnError(t *testing.T) {
	f := testFramework(t)
	prog := isa.MustAssemble("sumloop", fwProg)
	wantPeriod := math.Float64bits(f.Machine.WorkingPeriodPs)
	wantDP := f.Datapath
	spec := ProgramSpec{
		Prog:      prog,
		Setup:     func(*cpu.CPU, int) error { return errors.New("boom") },
		Scenarios: 1,
	}
	if _, err := f.AnalyzeAtRatio(context.Background(), "sumloop", spec, 1.22, AnalyzeOpts{}); err == nil {
		t.Fatal("want setup failure")
	}
	if got := math.Float64bits(f.Machine.WorkingPeriodPs); got != wantPeriod {
		t.Fatalf("working period not restored after error: bits %x != %x", got, wantPeriod)
	}
	if f.Datapath != wantDP {
		t.Fatal("datapath not restored after error")
	}
}

var (
	droopOnce sync.Once
	droopFW   *Framework
	droopErr  error
)

// droopFramework builds (once) a framework at a drooped, hot operating
// condition; periods and calibration match testFramework's, only the V/T
// delay/sigma factors differ.
func droopFramework(t *testing.T) *Framework {
	t.Helper()
	droopOnce.Do(func() {
		opts := errormodel.DefaultOptions()
		opts.Cond = cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
		droopFW, droopErr = NewFramework(opts)
	})
	if droopErr != nil {
		t.Fatal(droopErr)
	}
	return droopFW
}

// TestErrorRateMonotoneInDroop is the voltage-axis property: at a fixed
// working period, dropping the supply (and heating the die) inflates every
// delay distribution, so the estimated error rate must not decrease.
func TestErrorRateMonotoneInDroop(t *testing.T) {
	nom := testFramework(t)
	droop := droopFramework(t)
	if math.Float64bits(nom.Machine.WorkingPeriodPs) != math.Float64bits(droop.Machine.WorkingPeriodPs) {
		t.Fatalf("working periods differ: %v vs %v",
			nom.Machine.WorkingPeriodPs, droop.Machine.WorkingPeriodPs)
	}
	ctx := context.Background()
	prog := isa.MustAssemble("sumloop", fwProg)
	spec := ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: 2}
	nomRep, err := nom.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	droopRep, err := droop.Analyze(ctx, "sumloop", spec)
	if err != nil {
		t.Fatal(err)
	}
	nomRate, droopRate := nomRep.Estimate.MeanErrorRate(), droopRep.Estimate.MeanErrorRate()
	if droopRate < nomRate-1e-12 {
		t.Errorf("error rate fell under droop: nominal %v, drooped %v", nomRate, droopRate)
	}
	// The engines must actually have shifted: mean gate delays inflate by
	// exactly the condition's delay factor (calibration is
	// condition-independent, so the scales match and the factor multiplies
	// on top).
	df := droop.Machine.Opts.Cond.DelayFactor()
	if !(df > 1) {
		t.Fatalf("DelayFactor = %v, want > 1 for droop+heat", df)
	}
	nomD := nom.Machine.AdderEngine.GateDelay(0)
	droopD := droop.Machine.AdderEngine.GateDelay(0)
	if math.Float64bits(droopD.Mean) != math.Float64bits(nomD.Mean*df) {
		t.Errorf("gate delay mean %v != nominal %v * factor %v", droopD.Mean, nomD.Mean, df)
	}
}

// TestBisectRatio checks the search's index bisection against a brute-force
// scan of the same grid, plus the infeasible path.
func TestBisectRatio(t *testing.T) {
	ctx := context.Background()
	analyze := func(_ context.Context, r float64) (*Report, error) { return rateReport(knee(r)), nil }

	lo, hi := 1.0, 1.4
	const steps = 64
	for _, target := range []float64{0, 1e-6, 1e-3, 0.01, 0.1, 1} {
		pt, err := SelectOperatingPoint(ctx, lo, hi, steps, target, analyze)
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Feasible {
			t.Fatalf("target %v: infeasible, but rate(lo) = %v", target, knee(lo))
		}
		// Brute force: the largest grid ratio meeting the target.
		want := lo
		for i := 0; i <= steps; i++ {
			r := gridRatio(lo, hi, steps, i)
			if rateReport(knee(r)).Estimate.MeanErrorRate() <= target {
				want = r
			}
		}
		if math.Float64bits(pt.Ratio) != math.Float64bits(want) {
			t.Errorf("target %v: ratio %v, brute force %v", target, pt.Ratio, want)
		}
		if pt.Evals > 10 { // 2 endpoints + ceil(log2(64)) probes
			t.Errorf("target %v: %d evals for %d steps", target, pt.Evals, steps)
		}
	}

	// Infeasible: even the slow end misses the target.
	pt, err := SelectOperatingPoint(ctx, 2, 3, 8, 0.5, analyze)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Feasible || pt.Ratio != 2 {
		t.Errorf("want infeasible at the low end, got %+v", pt)
	}
	if pt.Evals != 1 {
		t.Errorf("infeasible should cost exactly one eval, got %d", pt.Evals)
	}
}

// TestBisectRatioDeterministic pins the cache-state invariance argument: the
// probe sequence depends only on the analyzed rates, so a cold run and a run
// against a pre-warmed memo produce bit-identical results and probes.
func TestBisectRatioDeterministic(t *testing.T) {
	ctx := context.Background()

	run := func(warm map[uint64]*Report) (OperatingPoint, []float64, map[uint64]*Report) {
		memo := make(map[uint64]*Report, len(warm))
		for k, v := range warm {
			memo[k] = v
		}
		var probes []float64
		analyze := func(_ context.Context, r float64) (*Report, error) {
			probes = append(probes, r)
			k := math.Float64bits(r)
			if v, ok := memo[k]; ok {
				return v, nil
			}
			v := rateReport(knee(r))
			memo[k] = v
			return v, nil
		}
		pt, err := SelectOperatingPoint(ctx, 1.0, 1.4, 128, 0.01, analyze)
		if err != nil {
			t.Fatal(err)
		}
		return pt, probes, memo
	}

	cold, coldProbes, memo := run(nil)
	warm, warmProbes, _ := run(memo)
	if cold != warm {
		t.Errorf("warm result %+v != cold %+v", warm, cold)
	}
	if fmt.Sprint(coldProbes) != fmt.Sprint(warmProbes) {
		t.Errorf("probe sequences differ:\ncold: %v\nwarm: %v", coldProbes, warmProbes)
	}
}

// TestBisectRatioCancel checks context errors surface instead of spinning.
func TestBisectRatioCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SelectOperatingPoint(ctx, 1, 1.4, 8, 0.5,
		func(context.Context, float64) (*Report, error) { return rateReport(0), nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
}
