// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), plus ablations of the framework's design choices. Each
// Table 2 benchmark reports the row's numbers as custom benchmark metrics
// (error-rate mean/sd in percent, the two Kolmogorov bounds); Figure 3
// benchmarks report the CDF evaluation cost and spot values. Run with:
//
//	go test -bench=. -benchmem
package tsperr

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/cfg"
	"tsperr/internal/core"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/gdta"
	"tsperr/internal/gen"
	"tsperr/internal/harness"
	"tsperr/internal/isa"
	"tsperr/internal/mibench"
	"tsperr/internal/mlpred"
	"tsperr/internal/montecarlo"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
	"tsperr/internal/sta"
	"tsperr/internal/surrogate"
	"tsperr/internal/variation"
)

// benchEngine is the uncached nominal engine every benchmark here shares, so
// a test binary builds the framework once.
var benchEngine = func() *harness.Engine {
	e, err := harness.New(cell.OperatingCondition{}, "")
	if err != nil {
		panic(err)
	}
	return e
}()

// benchTable2 runs the full framework on one benchmark and reports its
// Table 2 row as benchmark metrics.
func benchTable2(b *testing.B, name string) {
	b.Helper()
	if _, err := benchEngine.Framework(context.Background()); err != nil {
		b.Fatal(err)
	}
	var rep *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = benchEngine.Analyze(context.Background(), name, 4, core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e := rep.Estimate
	b.ReportMetric(100*e.MeanErrorRate(), "errRateMean_%")
	b.ReportMetric(100*e.StdErrorRate(), "errRateSD_%")
	b.ReportMetric(e.DKLambda, "dK_lambda")
	b.ReportMetric(e.DKCount, "dK_R")
	b.ReportMetric(float64(rep.BasicBlocks), "blocks")
}

func BenchmarkTable2Basicmath(b *testing.B)    { benchTable2(b, "basicmath") }
func BenchmarkTable2Bitcount(b *testing.B)     { benchTable2(b, "bitcount") }
func BenchmarkTable2Dijkstra(b *testing.B)     { benchTable2(b, "dijkstra") }
func BenchmarkTable2Patricia(b *testing.B)     { benchTable2(b, "patricia") }
func BenchmarkTable2PGPEncode(b *testing.B)    { benchTable2(b, "pgp.encode") }
func BenchmarkTable2PGPDecode(b *testing.B)    { benchTable2(b, "pgp.decode") }
func BenchmarkTable2Tiff2bw(b *testing.B)      { benchTable2(b, "tiff2bw") }
func BenchmarkTable2Typeset(b *testing.B)      { benchTable2(b, "typeset") }
func BenchmarkTable2Ghostscript(b *testing.B)  { benchTable2(b, "ghostscript") }
func BenchmarkTable2Stringsearch(b *testing.B) { benchTable2(b, "stringsearch") }
func BenchmarkTable2GSMEncode(b *testing.B)    { benchTable2(b, "gsm.encode") }
func BenchmarkTable2GSMDecode(b *testing.B)    { benchTable2(b, "gsm.decode") }

// benchFigure3 regenerates one benchmark's Figure 3 CDF series with bounds.
func benchFigure3(b *testing.B, name string) {
	b.Helper()
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := benchEngine.Analyze(context.Background(), name, 4, core.AnalyzeOpts{})
	if err != nil {
		b.Fatal(err)
	}
	pm := f.PerfModel()
	var series []harness.Figure3Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series = harness.Figure3Series(rep, pm, 1.6, 25)
	}
	b.StopTimer()
	// Spot metrics: CDF at the mean must be near the median, the bounds
	// bracket it, and the series is monotone. The mixed Poisson count is
	// nearly symmetric at these scales (skewness below 0.03), so the CDF at
	// the mean sits within 0.02 of 1/2; the Poisson CDF underflow once put
	// it at 0 for patricia.
	mid := rep.Estimate.ErrorRateCDF(rep.Estimate.MeanErrorRate())
	b.ReportMetric(mid, "cdf_at_mean")
	if math.Abs(mid-0.5) > 0.02 {
		b.Fatalf("CDF at the mean error rate = %v, want within 0.02 of 0.5", mid)
	}
	for i := 1; i < len(series); i++ {
		if series[i].CDF < series[i-1].CDF-1e-9 {
			b.Fatalf("CDF not monotone at point %d", i)
		}
		if !(series[i].Lo <= series[i].CDF && series[i].CDF <= series[i].Hi) {
			b.Fatalf("bounds do not bracket at point %d", i)
		}
	}
}

func BenchmarkFigure3Basicmath(b *testing.B)    { benchFigure3(b, "basicmath") }
func BenchmarkFigure3Bitcount(b *testing.B)     { benchFigure3(b, "bitcount") }
func BenchmarkFigure3Dijkstra(b *testing.B)     { benchFigure3(b, "dijkstra") }
func BenchmarkFigure3Patricia(b *testing.B)     { benchFigure3(b, "patricia") }
func BenchmarkFigure3PGPEncode(b *testing.B)    { benchFigure3(b, "pgp.encode") }
func BenchmarkFigure3PGPDecode(b *testing.B)    { benchFigure3(b, "pgp.decode") }
func BenchmarkFigure3Tiff2bw(b *testing.B)      { benchFigure3(b, "tiff2bw") }
func BenchmarkFigure3Typeset(b *testing.B)      { benchFigure3(b, "typeset") }
func BenchmarkFigure3Ghostscript(b *testing.B)  { benchFigure3(b, "ghostscript") }
func BenchmarkFigure3Stringsearch(b *testing.B) { benchFigure3(b, "stringsearch") }
func BenchmarkFigure3GSMEncode(b *testing.B)    { benchFigure3(b, "gsm.encode") }
func BenchmarkFigure3GSMDecode(b *testing.B)    { benchFigure3(b, "gsm.decode") }

// BenchmarkOperatingPoint reproduces the Section 6.1 calibration claim: the
// generated design is error-free at the 718 MHz baseline, starts failing
// near 1.13x, and is usable at the 1.15x working point.
func BenchmarkOperatingPoint(b *testing.B) {
	var poffER, workER float64
	for i := 0; i < b.N; i++ {
		m, err := errormodel.NewMachine(errormodel.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		table, err := m.TrainDatapath(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		workER = table.At(m.AnalysisPeriodPs).AdderFail[32]
		poffER = table.At(m.PoFFPeriodPs).AdderFail[32]
	}
	b.ReportMetric(poffER, "fullChainFail_at_PoFF")
	b.ReportMetric(workER, "fullChainFail_at_1.15x")
	if !(poffER < workER) {
		b.Fatal("failure probability must grow beyond the PoFF")
	}
}

// BenchmarkPerfModelAnchors verifies the Figure 3 top-axis anchors of
// Section 6.3 (0.4% -> +4.93%, 1.068% -> -8.46%).
func BenchmarkPerfModelAnchors(b *testing.B) {
	pm := cpu.PaperPerfModel()
	var a1, a2 float64
	for i := 0; i < b.N; i++ {
		a1 = pm.ImprovementPct(0.004)
		a2 = pm.ImprovementPct(0.01068)
	}
	b.ReportMetric(a1, "improvement_at_0.4%")
	b.ReportMetric(a2, "improvement_at_1.068%")
	if math.Abs(a1-4.93) > 0.02 || math.Abs(a2+8.46) > 0.03 {
		b.Fatalf("anchors off: %v %v", a1, a2)
	}
}

// BenchmarkApproxValidation is the Section 5 validation experiment: direct
// Monte Carlo simulation of the Markov error process versus the
// Poisson-mixture estimate, reporting the worst CDF distance and the bound.
func BenchmarkApproxValidation(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := mibench.ByName("typeset")
	if err != nil {
		b.Fatal(err)
	}
	// Unscaled analysis so Monte Carlo trials are cheap.
	rep, err := f.Analyze(context.Background(), bm.Name, core.ProgramSpec{
		Prog: bm.Prog, Setup: bm.Setup, Scenarios: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	var conds []*errormodel.Conditionals
	for _, sc := range rep.Scenarios {
		conds = append(conds, sc.Cond)
	}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc, err := montecarlo.Run(montecarlo.Spec{
			Prog: bm.Prog, Setup: bm.Setup, Cond: conds, Trials: 800, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ecdf := mc.CDF()
		worst = 0
		for k := 0.0; k < rep.Estimate.LambdaMean*4+10; k++ {
			if d := math.Abs(ecdf(k) - rep.Estimate.ErrorCountCDF(k)); d > worst {
				worst = d
			}
		}
	}
	b.StopTimer()
	bound := rep.Estimate.DKLambda + rep.Estimate.DKCount
	b.ReportMetric(worst, "maxCDFDistance")
	b.ReportMetric(bound, "bound")
	if worst > bound+0.06 { // 0.06 covers Monte Carlo sampling noise
		b.Fatalf("distance %v exceeds bound %v", worst, bound)
	}
}

// BenchmarkAblationKPaths measures the sensitivity of the trained datapath
// model to the per-endpoint critical path count K of Algorithm 1 (the
// DESIGN.md ablation: too few paths under-estimates failure probabilities).
func BenchmarkAblationKPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := errormodel.DefaultOptions()
		opts.KPaths = 2
		m2, err := errormodel.NewMachine(opts)
		if err != nil {
			b.Fatal(err)
		}
		table2, err := m2.TrainDatapath(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		opts.KPaths = 8
		m8, err := errormodel.NewMachine(opts)
		if err != nil {
			b.Fatal(err)
		}
		table8, err := m8.TrainDatapath(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(table2.At(m2.AnalysisPeriodPs).AdderFail[32], "fullChainFail_K2")
		b.ReportMetric(table8.At(m8.AnalysisPeriodPs).AdderFail[32], "fullChainFail_K8")
	}
}

// BenchmarkAblationScenarios quantifies how the number of input datasets
// sharpens the data-variation spread (lambda SD stabilizes with scenarios).
func BenchmarkAblationScenarios(b *testing.B) {
	if _, err := benchEngine.Framework(context.Background()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep2, err := benchEngine.Analyze(context.Background(), "stringsearch", 2, core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
		rep8, err := benchEngine.Analyze(context.Background(), "stringsearch", 8, core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rep2.Estimate.StdErrorRate(), "sd2_%")
		b.ReportMetric(100*rep8.Estimate.StdErrorRate(), "sd8_%")
	}
}

// BenchmarkFrameworkSetup measures the one-time machine construction:
// netlist generation, SSTA calibration, and datapath training (the "once per
// design" cost the paper amortizes).
func BenchmarkFrameworkSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewFramework(errormodel.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameworkSetupAt measures uncached framework builds of engines
// made at two V/T corners whose builds exploded under the float path search
// (about 1 s at 1.0 V/85 C and 12 s at 1.07 V against nominal's 0.1 s): a
// corner's calibration is nominal's, but its training and DTA endpoint
// searches run at the corner's relative sigma.
func BenchmarkFrameworkSetupAt(b *testing.B) {
	for _, c := range []struct {
		name string
		cond cell.OperatingCondition
	}{
		{"1.0V-85C", cell.OperatingCondition{VoltageV: 1.0, TempC: 85}},
		{"1.07V-25C", cell.OperatingCondition{VoltageV: 1.07, TempC: 25}},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := errormodel.DefaultOptions()
			opts.Cond = c.cond
			for i := 0; i < b.N; i++ {
				if _, err := core.NewFramework(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCornerFirstRequest measures what a cold operating-point corner
// costs a nominal engine whose own framework is built (untimed): its first
// request there, a 2-scenario stringsearch analysis at the working ratio.
// At a new voltage the request builds that voltage's framework from the
// engine's scales, which trains its period-free datapath table once,
// whatever the request's temperature (1.0V-25C and 1.0V-85C). At a
// temperature-only corner (1.1V-85C) the engine's own framework serves it.
// No row trains at the request's period: the model there is one shift of
// the table. Every row characterizes the program's control network at the
// request's period.
func BenchmarkCornerFirstRequest(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		cond cell.OperatingCondition
	}{
		{"1.0V-25C", cell.OperatingCondition{VoltageV: 1.0, TempC: 25}},
		{"1.0V-85C", cell.OperatingCondition{VoltageV: 1.0, TempC: 85}},
		{"1.1V-85C", cell.OperatingCondition{VoltageV: 1.1, TempC: 85}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := harness.New(cell.OperatingCondition{}, "")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Framework(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.AnalyzeAt(ctx, "stringsearch", 2, core.AnalyzeOpts{}, c.cond, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameworkSetupWarm measures a warm start from the persistent
// model cache: the first (untimed) build publishes the snapshot, then every
// timed iteration restores the machine from cached delay scales and trained
// tables, skipping SSTA calibration and datapath training entirely.
func BenchmarkFrameworkSetupWarm(b *testing.B) {
	dir := b.TempDir()
	opts := errormodel.DefaultOptions()
	if _, warm, err := core.NewFrameworkCachedContext(context.Background(), opts, dir); err != nil {
		b.Fatal(err)
	} else if warm {
		b.Fatal("first build cannot be warm")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, warm, err := core.NewFrameworkCachedContext(context.Background(), opts, dir)
		if err != nil {
			b.Fatal(err)
		}
		if !warm {
			b.Fatal("primed cache should stay warm")
		}
	}
}

// benchUnits returns the five pipeline netlists, the SSTA variation model
// and the options NewMachine calibrates them with.
func benchUnits(b *testing.B) ([]*netlist.Netlist, *variation.Model, errormodel.Options) {
	b.Helper()
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		b.Fatal(err)
	}
	nets := []*netlist.Netlist{
		gen.Control().N, gen.Adder().N, gen.Shifter().N, gen.Logic().N, gen.Multiplier().N,
	}
	return nets, model, opts
}

// benchMultiplier returns an SSTA engine over the multiplier, whose
// endpoints carry the largest k-critical-path searches of the five units.
func benchMultiplier(b *testing.B) (*sta.Engine, errormodel.Options) {
	b.Helper()
	nets, model, opts := benchUnits(b)
	e, err := sta.NewEngine(nets[4], model, 1e6/opts.BaseFreqMHz, opts.SigmaRel, 1)
	if err != nil {
		b.Fatal(err)
	}
	return e, opts
}

var (
	benchPathsSink []netlist.Path
	benchFormSink  variation.Canon
)

// BenchmarkCalibrateScale measures the SSTA calibration of the five units
// at the default options, serially: k-critical-path enumeration for every
// endpoint, then the statistical maximum over all path delays. It is the
// bulk of BenchmarkFrameworkSetup.
func BenchmarkCalibrateScale(b *testing.B) {
	nets, model, opts := benchUnits(b)
	target := 1e6 / opts.BaseFreqMHz / opts.PoFFRatio
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			if _, err := gen.CalibrateScale([]*netlist.Netlist{n}, model,
				opts.SigmaRel, target, opts.CalibrationPercentile, opts.KPaths); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCriticalPaths measures the k-critical-path search over every
// endpoint of the multiplier, one CriticalPaths call each on a fresh arena,
// and reports the search states they push (pushes/op).
func BenchmarkCriticalPaths(b *testing.B) {
	e, opts := benchMultiplier(b)
	var eps []netlist.GateID
	for s := 0; s < e.N.Stages; s++ {
		eps = append(eps, e.N.Endpoints(s)...)
	}
	pushed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ep := range eps {
			var a sta.Arena
			benchPathsSink = e.CriticalPathsIn(ep, opts.KPaths, &a)
			pushed += a.Pushed()
		}
	}
	b.ReportMetric(float64(pushed)/float64(b.N), "pushes/op")
}

// BenchmarkStatMin measures the greedy statistical minimum over the
// multiplier's path slack forms: 96 forms is the greedy limit, 200 adds
// the sorted pre-fold.
func BenchmarkStatMin(b *testing.B) {
	e, opts := benchMultiplier(b)
	var forms []variation.Canon
	for s := 0; s < e.N.Stages; s++ {
		bySlack := e.EndpointSlackForms(s, opts.KPaths)
		for _, ep := range e.N.Endpoints(s) {
			forms = append(forms, bySlack[ep]...)
		}
	}
	for _, n := range []int{96, 200} {
		if len(forms) < n {
			b.Fatalf("multiplier has %d path slack forms, want %d", len(forms), n)
		}
		b.Run(fmt.Sprintf("forms=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mn, err := sta.StatMin(forms[:n])
				if err != nil {
					b.Fatal(err)
				}
				benchFormSink = mn
			}
		})
	}
}

// BenchmarkCharacterizeControl measures the per-program control-network DTS
// characterization (the gate-level block-parallel phase). The stimulus memo
// is cleared each iteration so the number reflects a cold characterization;
// a separate metric reports the warm (fully memoized) cost.
func BenchmarkCharacterizeControl(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := benchEngine.Analyze(context.Background(), "stringsearch", 2, core.AnalyzeOpts{})
	if err != nil {
		b.Fatal(err)
	}
	sc := rep.Scenarios[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Machine.ClearStimulusMemo()
		if _, err := f.Machine.CharacterizeControl(context.Background(), rep.Graph, sc.Profile, sc.Features.Results); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	warmStart := time.Now()
	if _, err := f.Machine.CharacterizeControl(context.Background(), rep.Graph, sc.Profile, sc.Features.Results); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(time.Since(warmStart).Seconds()*1e3, "warm_ms")
}

// BenchmarkSimulationThroughput measures instrumented-simulation speed in
// instructions per second (the paper reports ~4.6 M inst/s on its host). Each
// op is one scenario as core.simScenario runs it: a fresh machine, the tally
// run, the profile and features taken from its tally, and the machine's
// release.
func BenchmarkSimulationThroughput(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := mibench.ByName("bitcount")
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Build(bm.Prog)
	if err != nil {
		b.Fatal(err)
	}
	ft := f.Datapath.FailTable()
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := cpu.New(bm.Prog, cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := bm.Setup(machine, i); err != nil {
			b.Fatal(err)
		}
		t, st, err := machine.RunTally(context.Background(), ft)
		if err != nil {
			b.Fatal(err)
		}
		cfg.FromTally(g, t, st.Instructions)
		errormodel.FeaturesFromTally(t)
		machine.Release()
		insts += st.Instructions
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(insts)/elapsed/1e6, "Minst/s")
	}
}

// BenchmarkEndToEndWarm measures the warm per-request latency of the full
// tsperr pipeline on stringsearch — instrumented simulation, (memoized)
// control characterization, marginals, and the Poisson-mixture estimate.
// This is the ROADMAP's hot-path number: everything model-setup related is
// amortized by the shared framework and the first untimed request.
func BenchmarkEndToEndWarm(b *testing.B) {
	if _, err := benchEngine.Framework(context.Background()); err != nil {
		b.Fatal(err)
	}
	if _, err := benchEngine.Analyze(context.Background(), "stringsearch", 4, core.AnalyzeOpts{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchEngine.Analyze(context.Background(), "stringsearch", 4, core.AnalyzeOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerCycleDTA measures the per-cycle DTA kernel: one gate-level
// activity simulation of the adder, the previous pattern then the current
// one, followed by the stage-DTS lookup the second cycle feeds. The stimulus
// rotates through a small pattern set, so after the first rounds the
// analyzer answers from its activation-signature memo — the steady-state
// cost of Algorithm 1 inside a characterization loop.
func BenchmarkPerCycleDTA(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	m := f.Machine
	sim, err := activity.Compile(m.Adder.N)
	if err != nil {
		b.Fatal(err)
	}
	eps := m.Adder.N.DataEndpoints(0)
	pats := [...][2]uint32{
		{0xFFFFFFFF, 1}, {0, 0}, {0x0000FFFF, 1}, {0xAAAAAAAA, 0x55555555},
		{1, 1}, {0x00FF00FF, 0xFF00FF00}, {0xFFFF0000, 0x10000}, {7, 3},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev, p := pats[(i+len(pats)-1)%len(pats)], pats[i%len(pats)]
		tr, err := sim.Run(2, func(t int, in activity.Inputs) {
			q := prev
			if t == 1 {
				q = p
			}
			in.SetWord(m.Adder.A[:], uint64(q[0]))
			in.SetWord(m.Adder.B[:], uint64(q[1]))
		})
		if err != nil {
			b.Fatal(err)
		}
		_, _ = m.AdderDTA.StageDTS(eps, 1, tr)
		tr.Release()
	}
}

// BenchmarkStageDTSMemoHit isolates the StageDTS memo-hit path: the trace and
// endpoint set are fixed, the first probe populates the activation-signature
// memo, and every timed iteration must answer from it and shift the
// period-free form to the working period. The allocs/op column is the
// guarded number — the hit path is supposed to be allocation-free.
func BenchmarkStageDTSMemoHit(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	m := f.Machine
	sim, err := activity.Compile(m.Adder.N)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Run(2, func(t int, in activity.Inputs) {
		if t == 1 {
			in.SetWord(m.Adder.A[:], 0xFFFFFFFF)
			in.SetWord(m.Adder.B[:], 1)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	eps := m.Adder.N.DataEndpoints(0)
	if _, ok := m.AdderDTA.StageDTS(eps, 1, tr); !ok {
		b.Fatal("full-chain stimulus must activate a path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, ok := m.AdderDTA.StageDTS(eps, 1, tr)
		if !ok {
			b.Fatal("memoized stage DTS disappeared")
		}
		benchFormSink = variation.Canon{Mean: f.Mean + m.WorkingPeriodPs, Sens: f.Sens, Rand: f.Rand}
	}
}

// BenchmarkPeriodSweepTraining measures what the datapath model at a new
// clock period costs, alternating between the working and PoFF periods — the
// shape of an operating-point bisection: the trained table's At and the
// FailTable an analysis reads of its result. The table is trained once,
// untimed; no period trains.
func BenchmarkPeriodSweepTraining(b *testing.B) {
	m, err := errormodel.NewMachine(errormodel.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	table, err := m.TrainDatapath(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	periods := [2]float64{m.WorkingPeriodPs, m.PoFFPeriodPs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if table.At(periods[i%2]).FailTable() == nil {
			b.Fatal("no fail table")
		}
	}
}

// BenchmarkPoissonMixtureCDF measures the Equation (14) quadrature.
func BenchmarkPoissonMixtureCDF(b *testing.B) {
	if _, err := benchEngine.Framework(context.Background()); err != nil {
		b.Fatal(err)
	}
	rep, err := benchEngine.Analyze(context.Background(), "patricia", 3, core.AnalyzeOpts{})
	if err != nil {
		b.Fatal(err)
	}
	e := rep.Estimate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.ErrorCountCDF(e.LambdaMean)
	}
}

// BenchmarkRNG measures the Monte Carlo random source.
func BenchmarkRNG(b *testing.B) {
	r := numeric.NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}

// BenchmarkAblationGraphVsPathDTA compares the path-based DTA of the paper
// (Algorithm 1 over k enumerated critical paths) with the graph-based
// alternative of the Related Work ([7]): per-cycle cost and the DTS gap on
// the adder under random stimulus.
func BenchmarkAblationGraphVsPathDTA(b *testing.B) {
	m, err := errormodel.NewMachine(errormodel.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ga, err := gdta.New(m.AdderEngine)
	if err != nil {
		b.Fatal(err)
	}
	pa := m.AdderDTA
	sim, err := activity.Compile(m.Adder.N)
	if err != nil {
		b.Fatal(err)
	}
	rng := numeric.NewRNG(2019)
	const cycles = 24
	tr, err := sim.Run(cycles, func(_ int, in activity.Inputs) {
		a, bb := uint32(rng.Uint64()), uint32(rng.Uint64())
		in.SetWord(m.Adder.A[:], uint64(a))
		in.SetWord(m.Adder.B[:], uint64(bb))
	})
	if err != nil {
		b.Fatal(err)
	}
	eps := m.Adder.N.Endpoints(0)
	var gap, worstGap float64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap, worstGap, n = 0, 0, 0
		for t := 1; t < cycles; t++ {
			g, okG := ga.StageDTS(eps, t, tr)
			p, okP := pa.StageDTS(eps, t, tr)
			if okG && okP {
				d := p.Mean + m.WorkingPeriodPs - g.Mean // graph sees more paths => smaller DTS
				gap += d
				if d > worstGap {
					worstGap = d
				}
				n++
			}
		}
	}
	b.StopTimer()
	if n > 0 {
		b.ReportMetric(gap/float64(n), "meanDTSGap_ps")
		b.ReportMetric(worstGap, "worstDTSGap_ps")
	}
}

// BenchmarkAblationCLAvsRipple contrasts the ripple-carry datapath the
// framework models with a carry-lookahead implementation: critical path and
// the operand dependence of the trained per-depth failure table flatten.
func BenchmarkAblationCLAvsRipple(b *testing.B) {
	var rippleDelay, claDelay float64
	for i := 0; i < b.N; i++ {
		model, err := variation.NewModel(2, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		ripple := gen.Adder()
		cla := gen.CLAAdder()
		eR, err := sta.NewEngine(ripple.N, model, 2000, cell.SigmaRel, 1)
		if err != nil {
			b.Fatal(err)
		}
		eC, err := sta.NewEngine(cla.N, model, 2000, cell.SigmaRel, 1)
		if err != nil {
			b.Fatal(err)
		}
		rippleDelay = eR.MaxDelayNominal()
		claDelay = eC.MaxDelayNominal()
	}
	b.ReportMetric(rippleDelay, "rippleCritPath_ps")
	b.ReportMetric(claDelay, "claCritPath_ps")
}

// BenchmarkAblationMLBaseline trains the Related-Work classifier baselines
// (decision tree, random forest) on one chip-sample's error outcomes and
// compares their calibration against the analytic probabilities — the
// paper's argument for a DTS-based statistical model.
func BenchmarkAblationMLBaseline(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := mibench.ByName("dijkstra")
	if err != nil {
		b.Fatal(err)
	}
	// Gather one run's dynamic instructions with analytic probabilities and
	// sampled outcomes (one manufactured chip + input).
	rng := numeric.NewRNG(77)
	var samples []mlpred.Sample
	var analyticBrier numeric.KahanSum
	machine, err := cpu.New(bm.Prog, cpu.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := bm.Setup(machine, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := machine.Run(func(d *cpu.DynInst) {
		p := f.Datapath.FailProb(d.Op, d.Depth)
		label := rng.Float64() < p
		samples = append(samples, mlpred.Sample{
			Features: []float64{float64(d.Op), float64(d.Depth), float64(d.DepthFlush), float64(d.Toggle)},
			Label:    label,
		})
		y := 0.0
		if label {
			y = 1
		}
		analyticBrier.Add((p - y) * (p - y))
	}); err != nil {
		b.Fatal(err)
	}
	var tree *mlpred.Tree
	var forest *mlpred.Forest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err = mlpred.Train(samples, mlpred.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		forest, err = mlpred.TrainForest(samples, 8, mlpred.DefaultConfig(), 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(mlpred.Accuracy(tree.Predict, samples), "treeAccuracy")
	b.ReportMetric(mlpred.BrierScore(tree.PredictProb, samples), "treeBrier")
	b.ReportMetric(mlpred.BrierScore(forest.PredictProb, samples), "forestBrier")
	b.ReportMetric(analyticBrier.Value()/float64(len(samples)), "analyticBrier")
}

// BenchmarkAnalyzeScenarioPool guards the resilient run layer's throughput:
// it drives Analyze through the bounded worker pool with a scenario count
// well above GOMAXPROCS and reports scenarios per second, so a regression
// versus the seed's unbounded per-scenario fan-out shows up as a drop in
// this metric rather than slipping in unnoticed.
func BenchmarkAnalyzeScenarioPool(b *testing.B) {
	if _, err := benchEngine.Framework(context.Background()); err != nil {
		b.Fatal(err)
	}
	const scenarios = 16
	var rep *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = benchEngine.Analyze(context.Background(), "stringsearch", scenarios, core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(rep.Scenarios) != scenarios {
		b.Fatalf("scenarios = %d", len(rep.Scenarios))
	}
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(scenarios*b.N)/elapsed, "scenarios/s")
	}
}

// BenchmarkEstimateSurrogateHit measures the surrogate fast tier's serving
// path — benchmark-name resolution, feature extraction, and the
// confidence-gated forest prediction — on a tier trained from the suite's
// exact labels. Compare with BenchmarkEndToEndWarm (the exact warm path,
// ~1.3ms): a surrogate hit must be at least two orders of magnitude cheaper
// for the two-tier design to pay off.
func BenchmarkEstimateSurrogateHit(b *testing.B) {
	fw, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	samples, err := benchEngine.SurrogateEvalSamples(context.Background(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	tier, err := surrogate.New(surrogate.Config{Fingerprint: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range samples {
		tier.Observe(s.Features, s.Log10Rate)
	}
	if err := tier.Retrain(); err != nil {
		b.Fatal(err)
	}
	tier.Quiesce()
	adapter := harness.NewSurrogateAdapter(fw, tier)
	if d := adapter.Decide("stringsearch", 4, 0); !d.Serve {
		b.Fatalf("gate escalated (%s); the benchmark must measure the serving path", d.Reason)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := adapter.Decide("stringsearch", 4, 0); !d.Serve {
			b.Fatal("gate escalated mid-benchmark")
		}
	}
}

// missMixPrograms are the programs of the estimate-miss workload: the Table
// 2 programs whose Eq. (14) range stays above the normal switch, so the
// exact pipeline is the whole cost of a miss.
var missMixPrograms = []string{
	"basicmath", "bitcount", "dijkstra", "pgp.encode", "pgp.decode",
	"tiff2bw", "typeset", "ghostscript", "gsm.decode",
}

// BenchmarkLayer measures the estimate-miss path layer by layer: the
// workload's request mix in process, then the tally run that simulates it,
// and the observer path it replaced — the batched interpreter and the two
// retirement observers that read its stream back — each in ns per retired
// instruction over scenario 0 of every mix program. The control rows time
// the control characterization of those nine scenario-0 profiles, as a miss
// characterizes its first scenario: cold after the stimulus memo is
// dropped, as at a daemon's first request for a program, warm, and warm at
// a clock period no iteration used before, as an operating-point search
// probes. The activity row times the gate-level simulator alone over the distinct
// control stimuli of that characterization, recorded once; setup-cold times
// a fresh uncached framework plus the nine characterizations, the
// in-process analogue of a fresh daemon's set-up (its DTA memos start cold
// too). `make pprof-miss` profiles the mix and `make pprof-setup`
// setup-cold.
// controlPeriods counts the periods BenchmarkLayer/control-new-period has
// characterized at, over every run of it in the process.
var controlPeriods int

func BenchmarkLayer(b *testing.B) {
	f, err := benchEngine.Framework(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("estimate-miss-mix", benchMissMix)

	cfgCPU := cpu.DefaultConfig()
	cfgCPU.SkipToggles = true // as the observer path ran it in the framework
	machine := func(b *testing.B, bm mibench.Benchmark) *cpu.CPU {
		m, err := cpu.New(bm.Prog, cfgCPU)
		if err != nil {
			b.Fatal(err)
		}
		if err := bm.Setup(m, 0); err != nil {
			b.Fatal(err)
		}
		return m
	}
	run := func(b *testing.B, bm mibench.Benchmark, obs cpu.BatchObserver) int64 {
		m := machine(b, bm)
		defer m.Release()
		st, err := m.RunBatched(context.Background(), obs)
		if err != nil {
			b.Fatal(err)
		}
		return st.Instructions
	}
	// The observers replay the batches each program retires, recorded on
	// first use so that a run of the mix alone skips the recording.
	type stream struct {
		bm      mibench.Benchmark
		g       *cfg.Graph
		batches [][]cpu.DynInst
	}
	var streams []stream
	var insts int64
	record := func(b *testing.B) {
		if len(streams) > 0 {
			return
		}
		for _, name := range missMixPrograms {
			bm, err := mibench.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g, err := cfg.Build(bm.Prog)
			if err != nil {
				b.Fatal(err)
			}
			s := stream{bm: bm, g: g}
			insts += run(b, bm, func(ds []cpu.DynInst) { s.batches = append(s.batches, append([]cpu.DynInst(nil), ds...)) })
			streams = append(streams, s)
		}
	}
	perInst := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*insts), "ns/inst")
	}

	b.Run("sim-tally", func(b *testing.B) {
		record(b)
		ft := f.Datapath.FailTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				m := machine(b, s.bm)
				if _, _, err := m.RunTally(context.Background(), ft); err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		}
		perInst(b)
	})
	b.Run("cpu-run", func(b *testing.B) {
		record(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				run(b, s.bm, func([]cpu.DynInst) {})
			}
		}
		perInst(b)
	})
	b.Run("profile-observe", func(b *testing.B) {
		record(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				pr := cfg.NewProfile(s.g)
				for _, ds := range s.batches {
					pr.ObserveBatch(ds)
				}
			}
		}
		perInst(b)
	})
	b.Run("features-observe", func(b *testing.B) {
		record(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range streams {
				fc, _ := errormodel.NewFeatureCollector(len(s.bm.Prog.Insts), f.Datapath)
				for _, ds := range s.batches {
					fc.ObserveBatch(ds)
				}
			}
		}
		perInst(b)
	})

	type controlInput struct {
		g       *cfg.Graph
		pr      *cfg.Profile
		results []uint32
	}
	var controls []controlInput
	recordControls := func(b *testing.B) {
		if len(controls) == 0 {
			ft := f.Datapath.FailTable()
			for _, name := range missMixPrograms {
				bm, err := mibench.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				g, err := cfg.Build(bm.Prog)
				if err != nil {
					b.Fatal(err)
				}
				m := machine(b, bm)
				t, st, err := m.RunTally(context.Background(), ft)
				m.Release()
				if err != nil {
					b.Fatal(err)
				}
				controls = append(controls, controlInput{g, cfg.FromTally(g, t, st.Instructions), t.Result})
			}
		}
	}
	characterize := func(b *testing.B) {
		for _, in := range controls {
			if _, err := f.Machine.CharacterizeControl(context.Background(), in.g, in.pr, in.results); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("control-cold", func(b *testing.B) {
		recordControls(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f.Machine.ClearStimulusMemo()
			b.StartTimer()
			characterize(b)
		}
	})
	b.Run("control-warm", func(b *testing.B) {
		recordControls(b)
		characterize(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			characterize(b)
		}
	})
	b.Run("control-new-period", func(b *testing.B) {
		recordControls(b)
		characterize(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			controlPeriods++
			period := f.Machine.AnalysisPeriodPs * (1 - 1e-7*float64(controlPeriods))
			for _, in := range controls {
				if _, err := f.Machine.CharacterizeControlWorkers(context.Background(), in.g, in.pr, in.results, 0, period); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("activity", func(b *testing.B) {
		recordControls(b)
		var streams [][][2]uint32
		seen := map[string]bool{}
		for _, in := range controls {
			for _, st := range controlStimuli(in.g, in.pr, in.results) {
				key := fmt.Sprint(st)
				if !seen[key] {
					seen[key] = true
					streams = append(streams, st)
				}
			}
		}
		ctrl := f.Machine.Ctrl
		sim, err := activity.Compile(ctrl.N)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, st := range streams {
				tr, err := sim.Run(len(st), func(t int, in activity.Inputs) {
					in.SetWord(ctrl.Instr[:], uint64(st[t][0]))
					in.SetWord(ctrl.ExResult[:], uint64(st[t][1]))
				})
				if err != nil {
					b.Fatal(err)
				}
				tr.Release()
			}
		}
		b.ReportMetric(float64(len(streams)), "stimuli")
	})
	b.Run("setup-cold", func(b *testing.B) {
		recordControls(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fw, err := core.NewFramework(errormodel.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			for _, in := range controls {
				if _, err := fw.Machine.CharacterizeControl(context.Background(), in.g, in.pr, in.results); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// controlStimuli lists the (instruction word, EX result) streams the control
// characterization of one profile simulates, as errormodel assembles them:
// for every executed block, its body behind each incoming edge's
// predecessor window (six nops for the residual program-entry mass), and
// the flushed variant with a nop before each instruction; every stream
// drains through the pipeline.
func controlStimuli(g *cfg.Graph, pr *cfg.Profile, results []uint32) [][][2]uint32 {
	nops := make([]int, cpu.NumStages)
	for i := range nops {
		nops[i] = -1
	}
	stream := func(idx []int) [][2]uint32 {
		st := make([][2]uint32, len(idx)+cpu.NumStages)
		for t := range st {
			if t < len(idx) && idx[t] >= 0 {
				st[t][0] = g.Prog.Insts[idx[t]].Encode()
			} else if t < len(idx) {
				st[t][0] = isa.Inst{}.Encode()
			}
			if k := t - cpu.StageEX; k >= 0 && k < len(idx) && idx[k] >= 0 {
				st[t][1] = results[idx[k]]
			}
		}
		return st
	}
	var out [][][2]uint32
	for b := range g.Blocks {
		if pr.ExecCount[b] == 0 {
			continue
		}
		blk := &g.Blocks[b]
		var body []int
		for i := blk.Start; i < blk.End; i++ {
			body = append(body, i)
		}
		var mass float64
		for _, e := range pr.IncomingEdges(b) {
			w := pr.ActivationProb(e)
			if w <= 0 {
				continue
			}
			mass += w
			pred := &g.Blocks[e.From]
			var idx []int
			for i := max(pred.End-cpu.NumStages, pred.Start); i < pred.End; i++ {
				idx = append(idx, i)
			}
			out = append(out, stream(append(idx, body...)))
		}
		if 1-mass > 1e-9 {
			out = append(out, stream(append(append([]int(nil), nops...), body...)))
		}
		flush := append([]int(nil), nops...)
		for _, i := range body {
			flush = append(flush, -1, i)
		}
		out = append(out, stream(flush))
	}
	return out
}

// benchMissMix replays the estimate-miss workload's request mix in process:
// the high-count programs at 1 to 32 scenarios through
// benchEngine.Analyze. One untimed 32-scenario request per program
// comes first, so every op is a warm miss like the daemon's: the control
// characterization is memoized and every scenario is simulated anew. Op i
// asks for program i mod 9, and its scenario count pairs with its
// neighbour's to 33, so every even prefix asks for the mix's mean and 288
// ops walk all 288 keys.
func benchMissMix(b *testing.B) {
	ctx := context.Background()
	const maxScenarios = 32
	// insts[p][n] is the instruction count a request for program p at n
	// scenarios simulates.
	insts := make([][]int64, len(missMixPrograms))
	for p, name := range missMixPrograms {
		rep, err := benchEngine.Analyze(ctx, name, maxScenarios, core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
		insts[p] = make([]int64, maxScenarios+1)
		for s, sc := range rep.Scenarios {
			insts[p][s+1] = insts[p][s]
			for _, c := range sc.Features.Count {
				insts[p][s+1] += c
			}
		}
	}
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, n := i%len(missMixPrograms), 1+13*(i/2)%(maxScenarios/2)
		if i%2 == 1 {
			n = maxScenarios + 1 - n
		}
		if _, err := benchEngine.Analyze(ctx, missMixPrograms[p], n, core.AnalyzeOpts{}); err != nil {
			b.Fatal(err)
		}
		total += insts[p][n]
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
