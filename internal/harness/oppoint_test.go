package harness

import (
	"context"
	"encoding/json"
	"errors"
	"math"
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
// maxConditionFrameworks conditions keep a framework at once, the coldest
// is evicted, and re-access refreshes recency.
func TestConditionRegistryLRU(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	builds := map[string]int{}
	e.build = func(_ context.Context, opts errormodel.Options, _ string) (*core.Framework, error) {
		builds[opts.Cond.String()]++
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
	// Touch "a" so "b" becomes the coldest, then overflow the bound.
	if at("a") != fws["a"] {
		t.Fatal("re-access did not return the existing framework")
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
}

// errNotKept is the failure of kept's probe build.
var errNotKept = errors.New("not kept")

// kept returns the framework e's registry keeps at cond, without building
// one: its probe build fails, and a failed build is not kept.
func kept(e *Engine, cond cell.OperatingCondition) (*core.Framework, bool) {
	f, err := e.others.Get(context.Background(), cond.String(), func(context.Context) (*core.Framework, error) {
		return nil, errNotKept
	})
	return f, err == nil
}

// TestAnalyzeAtWaiterLeavesOnItsOwnContext starts a cold build at a new
// condition and sends a second analysis there whose context is cancelled
// while the build runs: the second caller leaves at once, not when the
// build returns. Once the build is cancelled too, the next call builds
// again.
func TestAnalyzeAtWaiterLeavesOnItsOwnContext(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	started := make(chan struct{})
	var builds atomic.Int32
	errRebuilt := errors.New("built again")
	e.build = func(ctx context.Context, _ errormodel.Options, _ string) (*core.Framework, error) {
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
	e.build = func(ctx context.Context, _ errormodel.Options, _ string) (*core.Framework, error) {
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
// framework is built, and the report is, byte for byte, AnalyzeAtRatio's on
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
	want, err := fresh.AnalyzeAtRatio(ctx, b.Name, SpecFor(b, 2), 1.2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := maskedJSON(t, want), maskedJSON(t, at); a != b {
		t.Errorf("override differs from AnalyzeAtRatio on a fresh framework\nfresh: %s\nat:    %s", a, b)
	}
}

// TestAnalyzeAtPointDroopRaisesErrorRate runs the registry path end to end:
// a droop-and-heat corner at the same ratio must not lower the error rate
// (the scaling law only inflates delays), and repeated calls reuse the
// registry entry.
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
	// A second call must reuse the same framework, not rebuild.
	if _, err := nominal.AnalyzeAt(ctx, "patricia", 2, core.AnalyzeOpts{}, droop, 1.1); err != nil {
		t.Fatal(err)
	}
	if again, _ := kept(nominal, droop); again != entry {
		t.Error("second analysis at the same condition rebuilt the registry entry")
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
