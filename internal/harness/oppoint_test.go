package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
)

func TestAnalyzeAtPointValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := New(cell.OperatingCondition{VoltageV: 9}, ""); err == nil {
		t.Error("engine at an absurd voltage accepted")
	}
	e := newEngine(cell.OperatingCondition{}, "")
	if _, err := e.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{},
		cell.OperatingCondition{VoltageV: 9}, 0); err == nil {
		t.Error("absurd voltage accepted")
	}
	for _, ratio := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := e.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{},
			cell.OperatingCondition{}, ratio); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
	// Unknown benchmarks fail before any framework is built.
	if _, err := e.AnalyzeAt(ctx, "nonesuch", 2, core.AnalyzeOpts{},
		cell.OperatingCondition{VoltageV: 0.9}, 1.1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestConditionRegistryLRU pins the registry bound: at most
// maxConditionFrameworks voltages keep a framework at once, the coldest is
// evicted, and re-access refreshes recency. A framework serves every
// temperature at its voltage and is built at the engine's temperature.
func TestConditionRegistryLRU(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	builds := map[string]int{}
	e.build = func(_ context.Context, cond cell.OperatingCondition) (*core.Framework, error) {
		builds[cond.String()]++
		return &core.Framework{}, nil
	}
	conds := map[string]cell.OperatingCondition{}
	fws := map[string]*core.Framework{}
	at := func(k string) *core.Framework {
		t.Helper()
		f, err := e.framework(context.Background(), conds[k])
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		conds[k] = cell.OperatingCondition{VoltageV: 0.9 + 0.01*float64(i)}
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		fws[k] = at(k)
	}
	// Another temperature at "a"'s voltage is "a"'s framework; the touch
	// makes "b" the coldest, then the bound overflows.
	hot := conds["a"]
	hot.TempC = 85
	if f, err := e.framework(context.Background(), hot); err != nil || f != fws["a"] {
		t.Fatalf("another temperature at a kept voltage got %p (%v), want the voltage's framework", f, err)
	}
	at("e")
	if n := e.others.Len(); n != maxConditionFrameworks {
		t.Errorf("registry holds %d frameworks, bound is %d", n, maxConditionFrameworks)
	}
	if _, ok := kept(e, conds["a"]); !ok {
		t.Error("recently used framework was evicted")
	}
	if _, ok := kept(e, conds["b"]); ok {
		t.Error("coldest framework survived the overflow")
	}
	// An evicted condition transparently gets a fresh framework on next use.
	if at("b") == fws["b"] || builds[conds["b"].String()] != 2 {
		t.Error("evicted framework was resurrected instead of rebuilt")
	}
	if len(builds) != 5 || builds[hot.String()] != 0 {
		t.Errorf("builds by condition %v, want one per voltage at the engine's temperature", builds)
	}
}

// errNotKept is the failure of kept's probe build.
var errNotKept = errors.New("not kept")

// kept returns the framework e's registry keeps at cond's voltage, without
// building one: its probe build fails, and a failed build is not kept.
func kept(e *Engine, cond cell.OperatingCondition) (*core.Framework, bool) {
	f, err := e.others.Get(context.Background(), math.Float64bits(cond.Norm().VoltageV), func(context.Context) (*core.Framework, error) {
		return nil, errNotKept
	})
	return f, err == nil
}

// TestAnalyzeAtWaiterLeavesOnItsOwnContext starts a cold build at a new
// voltage and sends a second analysis there whose context is cancelled
// while the build runs: the second caller leaves at once, not when the
// build returns. Once the build is cancelled too, the next call builds
// again.
func TestAnalyzeAtWaiterLeavesOnItsOwnContext(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	started := make(chan struct{})
	var builds atomic.Int32
	errRebuilt := errors.New("built again")
	e.build = func(ctx context.Context, _ cell.OperatingCondition) (*core.Framework, error) {
		if builds.Add(1) > 1 {
			return nil, errRebuilt
		}
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	analyze := func(ctx context.Context) <-chan error {
		out := make(chan error, 1)
		go func() {
			_, err := e.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
			out <- err
		}()
		return out
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	first := analyze(ctx1)
	<-started
	ctx2, cancel2 := context.WithCancel(context.Background())
	second := analyze(ctx2)
	// Give the second caller time to reach the wait; it must leave
	// promptly whether it waits already or arrives cancelled.
	time.Sleep(10 * time.Millisecond)
	cancel2()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("a cancelled caller stayed for another caller's cold build")
	}
	cancel1()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled builder: err = %v, want context.Canceled", err)
	}
	if _, err := e.AnalyzeAt(context.Background(), "patricia", 2, core.AnalyzeOpts{}, droop, 0); !errors.Is(err, errRebuilt) || builds.Load() != 2 {
		t.Errorf("after a cancelled build: err = %v after %d builds, want a new build", err, builds.Load())
	}
}

// TestCancelledColdBuildsKeepNothing pins what a deadline shorter than a
// cold build costs: each request at the condition starts the build afresh
// and leaves with its deadline's error, and nothing is kept, so with the
// model cache off no such request ever gets a framework.
func TestCancelledColdBuildsKeepNothing(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	var builds atomic.Int32
	e.build = func(ctx context.Context, _ cell.OperatingCondition) (*core.Framework, error) {
		builds.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	for i := 1; i <= 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := e.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || int(builds.Load()) != i || e.others.Len() != 0 {
			t.Errorf("request %d: err = %v after %d builds with %d kept, want its deadline, a build of its own and nothing kept",
				i, err, builds.Load(), e.others.Len())
		}
	}
}

// maskedJSON is a report's wire form with the wall-clock Training and
// Simulation durations zeroed: everything else must agree to the byte
// between two routes to the same analysis.
func maskedJSON(t *testing.T, rep *core.Report) string {
	t.Helper()
	r := *rep
	r.Training, r.Simulation = 0, 0
	buf, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestAnalyzeAtPointDelegatesAtDefaultPoint pins the default point: the
// engine's condition at the default working ratio is the plain analysis —
// bit-for-bit, on the engine's framework, with no registry machine built.
func TestAnalyzeAtPointDelegatesAtDefaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	plain, err := nominal.Analyze(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	before := nominal.others.Len()
	for _, tc := range []struct {
		name  string
		cond  cell.OperatingCondition
		ratio float64
	}{
		{"zero condition, zero ratio", cell.OperatingCondition{}, 0},
		{"explicit nominal, default ratio",
			cell.Nominal(), errormodel.DefaultOptions().WorkingRatio},
	} {
		at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, tc.cond, tc.ratio)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if a, b := maskedJSON(t, plain), maskedJSON(t, at); a != b {
			t.Errorf("%s: report differs from the plain path\nplain: %s\nat:    %s",
				tc.name, a, b)
		}
	}
	if after := nominal.others.Len(); after != before {
		t.Errorf("default-point analysis built %d registry frameworks", after-before)
	}
}

// TestAnalyzeAtOwnConditionOtherRatio pins that a ratio override at the
// engine's own condition runs on the engine's framework: no registry
// framework is built, and the report is, byte for byte, core's AnalyzeAt on
// a fresh framework at that condition.
func TestAnalyzeAtOwnConditionOtherRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, cell.Nominal(), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, built := kept(nominal, cell.Nominal()); built {
		t.Error("an override at the engine's own condition built a registry framework")
	}
	fresh, err := core.NewFramework(nominal.Options())
	if err != nil {
		t.Fatal(err)
	}
	b, err := mibench.ByName("patricia")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AnalyzeAt(ctx, b.Name, SpecFor(b, 2), cell.Nominal(), 1.2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := maskedJSON(t, want), maskedJSON(t, at); a != b {
		t.Errorf("override differs from AnalyzeAt on a fresh framework\nfresh: %s\nat:    %s", a, b)
	}
}

// TestAnalyzeAtPointDroopRaisesErrorRate runs the registry path end to end:
// a droop-and-heat corner at the same ratio must not lower the error rate
// (the scaling law only inflates delays), and repeated calls at the voltage
// reuse the registry entry, at any temperature.
func TestAnalyzeAtPointDroopRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	plain, err := nominal.Analyze(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	rep, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := rep.Estimate.MeanErrorRate(), plain.Estimate.MeanErrorRate(); got < base {
		t.Errorf("droop corner lowered the error rate: %v < %v", got, base)
	}
	entry, built := kept(nominal, droop)
	if !built {
		t.Fatal("droop analysis did not leave a built framework in the registry")
	}
	// Later calls at the voltage must reuse the same framework, not rebuild.
	for _, cond := range []cell.OperatingCondition{droop, {VoltageV: 1.0, TempC: 60}} {
		if _, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, cond, 1.1); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := kept(nominal, droop); again != entry {
		t.Error("a later analysis at the same voltage rebuilt the registry entry")
	}
}

// TestEnginesAreIndependent holds a nominal engine and a 1.0 V / 85 C engine
// in one process. Each keeps its own framework, options and memos, and the
// droop engine's plain analysis is the nominal engine's analysis at that
// condition and the default ratio, byte for byte.
func TestEnginesAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds frameworks at two operating conditions")
	}
	ctx := context.Background()
	droop := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	hot := newEngine(droop, "")
	own, err := hot.Analyze(ctx, "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := maskedJSON(t, own), maskedJSON(t, at); a != b {
		t.Errorf("droop engine's analysis differs from the nominal engine's at the droop point\nown: %s\nat:  %s", a, b)
	}

	nf, err := nominal.Framework(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hf, err := hot.Framework(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if nf == hf {
		t.Error("the two engines share a framework")
	}
	if !hot.Options().Cond.Equal(droop) || !nominal.Options().Cond.IsNominal() {
		t.Errorf("options conditions: hot %v, nominal %v", hot.Options().Cond, nominal.Options().Cond)
	}
	if n := hot.others.Len(); n != 0 {
		t.Errorf("the droop engine's registry holds %d frameworks; only the nominal engine visited another condition", n)
	}
}

// TestTemperatureCornerIsAScaledRatio pins the fold of the V/T law into the
// clock period: a temperature-only corner at ratio r is the engine's own
// condition at ratio r × DelayFactor, estimate byte for byte, on the
// engine's own framework.
func TestTemperatureCornerIsAScaledRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	const r = 1.1
	for _, temp := range []float64{-40, 85} {
		hot := cell.OperatingCondition{TempC: temp}
		at, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, hot, r)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, cell.Nominal(), r*hot.DelayFactor())
		if err != nil {
			t.Fatal(err)
		}
		if a, b := maskedJSON(t, at), maskedJSON(t, scaled); a != b {
			t.Errorf("%v at %v differs from nominal at the scaled ratio\ncorner: %s\nscaled: %s", hot, r, a, b)
		}
		if _, built := kept(nominal, hot); built {
			t.Errorf("a temperature-only corner at %v built a registry framework", hot)
		}
	}
}

// TestCornerGridBuildsOneFramework serves the 1.0/1.1 V × 25/85 °C grid
// from a fresh nominal engine: it builds exactly one framework besides its
// own, for 1.0 V at the engine's temperature, and that build takes the own
// framework's scales instead of calibrating (the own framework here carries
// scales calibration would not give).
func TestCornerGridBuildsOneFramework(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()
	nf, err := nominal.Framework(ctx)
	if err != nil {
		t.Fatal(err)
	}
	scales := nf.Machine.Scales()
	scales["adder"] *= 1.001
	e := newEngine(cell.OperatingCondition{}, "")
	var mu sync.Mutex
	var built []string
	e.build = func(ctx context.Context, cond cell.OperatingCondition) (*core.Framework, error) {
		mu.Lock()
		built = append(built, cond.String())
		mu.Unlock()
		if cond.Equal(e.cond) {
			return core.NewFrameworkWithScales(ctx, e.Options(), scales)
		}
		return e.buildAt(ctx, cond)
	}
	for _, v := range []float64{1.0, 1.1} {
		for _, temp := range []float64{25, 85} {
			if _, err := e.AnalyzeAt(ctx, "stringsearch", 2, core.AnalyzeOpts{}, cell.OperatingCondition{VoltageV: v, TempC: temp}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	slices.Sort(built)
	if want := "[1.1V/25C 1V/25C]"; fmt.Sprint(built) != want || e.others.Len() != 1 {
		t.Fatalf("builds %v with %d registry frameworks, want %s and one", built, e.others.Len(), want)
	}
	low, _ := kept(e, cell.OperatingCondition{VoltageV: 1.0})
	for unit, s := range low.Machine.Scales() {
		if math.Float64bits(s) != math.Float64bits(scales[unit]) {
			t.Errorf("the 1.0 V framework's %s scale is %v, the engine's is %v", unit, s, scales[unit])
		}
	}
}

// TestErrorRateMonotoneOverCorners is the standing check that the estimate
// moves the right way off the anchor point: on three programs, λ must not
// decrease with the frequency ratio at nominal, with temperature at 1.1 V,
// or with droop at 25 °C.
func TestErrorRateMonotoneOverCorners(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes three programs at 17 operating points")
	}
	ctx := context.Background()
	e := newEngine(cell.OperatingCondition{}, "")
	programs := []string{"typeset", "patricia", "gsm.encode"}
	type point struct {
		cond  cell.OperatingCondition
		ratio float64
	}
	var ratios, temps, droops []point
	for _, r := range []float64{1.10, 1.14, 1.18, 1.22, 1.26} {
		ratios = append(ratios, point{cell.OperatingCondition{}, r})
	}
	for _, temp := range []float64{-40, -10, 25, 60, 100, 125} {
		temps = append(temps, point{cell.OperatingCondition{VoltageV: 1.1, TempC: temp}, 1.15})
	}
	for _, v := range []float64{1.25, 1.20, 1.15, 1.10, 1.05, 1.00} {
		droops = append(droops, point{cell.OperatingCondition{VoltageV: v, TempC: 25}, 1.15})
	}
	for _, axis := range []struct {
		name   string
		points []point
	}{{"ratio", ratios}, {"temperature", temps}, {"droop", droops}} {
		// Points outermost, so each voltage's framework is built once.
		lambda := map[string][]float64{}
		for _, p := range axis.points {
			for _, name := range programs {
				rep, err := e.AnalyzeAt(ctx, name, 4, core.AnalyzeOpts{}, p.cond, p.ratio)
				if err != nil {
					t.Fatal(err)
				}
				lambda[name] = append(lambda[name], rep.Estimate.LambdaMean)
			}
		}
		for _, name := range programs {
			for i := 1; i < len(axis.points); i++ {
				if l := lambda[name]; l[i] < l[i-1] {
					t.Errorf("%s: λ fell along the %s axis from %v at %v/%v to %v at %v/%v", name, axis.name,
						l[i-1], axis.points[i-1].cond, axis.points[i-1].ratio, l[i], axis.points[i].cond, axis.points[i].ratio)
				}
			}
		}
	}
}
