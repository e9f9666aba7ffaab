package harness

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/faultinject"
	"tsperr/internal/mibench"
	"tsperr/internal/modelcache"
)

// nominal is the engine the package's full-framework tests share, so the
// test binary builds the nominal framework once.
var nominal = newEngine(cell.OperatingCondition{}, "")

// newEngine is New for a condition the caller knows is valid.
func newEngine(cond cell.OperatingCondition, dir string) *Engine {
	e, err := New(cond, dir)
	if err != nil {
		panic(err)
	}
	return e
}

func TestAnalyzeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	rep, err := nominal.Analyze(context.Background(), "patricia", 3, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "patricia" {
		t.Errorf("name = %q", rep.Name)
	}
	e := rep.Estimate
	if e.MeanErrorRate() <= 0 || e.MeanErrorRate() > 0.05 {
		t.Errorf("mean error rate implausible: %v", e.MeanErrorRate())
	}
	if e.LambdaMean <= 0 {
		t.Error("lambda must be positive")
	}
	// The scaled instruction count should be near the paper's target.
	b, _ := mibench.ByName("patricia")
	if rep.Instructions < b.ScaleTo/2 || rep.Instructions > b.ScaleTo {
		t.Errorf("instructions = %d, target %d", rep.Instructions, b.ScaleTo)
	}
}

func TestAnalyzeUnknown(t *testing.T) {
	if _, err := nominal.Analyze(context.Background(), "nonesuch", 2, core.AnalyzeOpts{}); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestTable2Formatting(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	rep, err := nominal.Analyze(context.Background(), "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	head := Table2Header()
	row := Table2Row(rep)
	for _, col := range []string{"Benchmark", "Instructions", "dK"} {
		if !strings.Contains(head, col) {
			t.Errorf("header missing %q", col)
		}
	}
	if !strings.Contains(row, "patricia") {
		t.Errorf("row missing name: %q", row)
	}
}

func TestFigure3SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	f, err := nominal.Framework()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nominal.Analyze(context.Background(), "patricia", 2, core.AnalyzeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pts := Figure3Series(rep, f.PerfModel(), 1.6, 17)
	if len(pts) != 17 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RatePct != 0 || pts[len(pts)-1].RatePct != 1.6 {
		t.Error("axis endpoints wrong")
	}
	for i, p := range pts {
		if p.Lo > p.CDF || p.CDF > p.Hi {
			t.Fatalf("bounds do not bracket at %d", i)
		}
		if i > 0 {
			if p.CDF < pts[i-1].CDF-1e-9 {
				t.Fatal("CDF not monotone")
			}
			if p.ImprovementPct > pts[i-1].ImprovementPct {
				t.Fatal("performance should fall as error rate rises")
			}
		}
	}
	text := RenderFigure3(rep, f.PerfModel(), 1.6, 5)
	if !strings.Contains(text, "patricia") || !strings.Contains(text, "rate(%)") {
		t.Errorf("render missing content:\n%s", text)
	}
}

func TestSpecForDefaults(t *testing.T) {
	b, err := mibench.ByName("bitcount")
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecFor(b, 0)
	if spec.Scenarios != DefaultScenarios {
		t.Errorf("scenarios = %d", spec.Scenarios)
	}
	if spec.ScaleToInsts != b.ScaleTo || spec.Prog != b.Prog {
		t.Error("spec fields wrong")
	}
}

// A degraded report must be visibly flagged in its Table 2 row, and the
// failure detail must name every dropped scenario with its phase tag.
func TestDegradedRowAndFailureDetail(t *testing.T) {
	inj := faultinject.New(1, faultinject.FailAlways(faultinject.Setup, 1))
	rep, err := nominal.Analyze(context.Background(), "stringsearch", 3, core.AnalyzeOpts{
		MinScenarios: 2,
		Inject: func(ctx context.Context, ph core.Phase, s int) error {
			return inj.Fire(ctx, faultinject.Point(ph), s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("run should be degraded")
	}
	row := Table2Row(rep)
	if !strings.Contains(row, "DEGRADED(1/3 scenarios failed)") {
		t.Errorf("degraded flag missing from row: %q", row)
	}
	detail := FailureDetail(rep.Failures)
	if !strings.Contains(detail, "scenario 1 [setup]") {
		t.Errorf("detail missing scenario tag: %q", detail)
	}
}

// A run cancelled during the marginals pass must tag its run-level error
// with that phase, not with the simulation phase that finished before it.
func TestCancellationNamesRunningPhase(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := nominal.Analyze(ctx, "stringsearch", 2, core.AnalyzeOpts{
		Inject: func(_ context.Context, ph core.Phase, _ int) error {
			if ph == core.PhaseMarginals {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	var run *core.ScenarioError
	for _, se := range core.ScenarioErrors(err) {
		if se.Scenario == -1 {
			run = se
		}
	}
	if run == nil || run.Phase != core.PhaseMarginals {
		t.Errorf("run-level error %+v, want phase %q", run, core.PhaseMarginals)
	}
	// A scenario's own line reads "scenario N [phase]: ..."; the run-level
	// line starts with the bracket.
	if detail := FailureDetail(err); !strings.Contains("\n"+detail, "\n[marginals]: context canceled") {
		t.Errorf("detail %q has no run-level [marginals] line", detail)
	}
}

// Regression: the shared framework used a sync.Once, so a single failed
// build (e.g. a transient resource problem) was latched and replayed to every
// later caller. A failure must leave the slot empty so the next call
// retries; a success must be latched.
func TestSharedFrameworkRetriesAfterFailure(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	calls := 0
	sentinel := &core.Framework{}
	e.build = func(context.Context, errormodel.Options, string) (*core.Framework, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient build failure")
		}
		return sentinel, nil
	}
	if _, err := e.Framework(); err == nil {
		t.Fatal("first build should fail")
	}
	f, err := e.Framework()
	if err != nil {
		t.Fatalf("second call should retry the build: %v", err)
	}
	if f != sentinel || calls != 2 {
		t.Errorf("framework %p after %d build calls", f, calls)
	}
	if f2, err := e.Framework(); err != nil || f2 != sentinel || calls != 2 {
		t.Errorf("success should be latched without rebuilding (calls=%d)", calls)
	}
}

func TestSharedFrameworkUsesModelCache(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(cell.OperatingCondition{}, dir)
	sentinel := &core.Framework{}
	var gotDir string
	e.build = func(_ context.Context, _ errormodel.Options, d string) (*core.Framework, error) {
		gotDir = d
		return sentinel, nil
	}
	f, err := e.Framework()
	if err != nil {
		t.Fatal(err)
	}
	if f != sentinel || gotDir != dir {
		t.Errorf("framework %p via dir %q, want %q", f, gotDir, dir)
	}
	if testing.Short() {
		return
	}
	// The real build goes through the cached constructor: it leaves the
	// snapshot a later engine restores from.
	cached := newEngine(cell.OperatingCondition{}, t.TempDir())
	if _, err := cached.Framework(); err != nil {
		t.Fatal(err)
	}
	snap := modelcache.Path(cached.CacheDir(), modelcache.Key(cached.Options(), cell.Fingerprint()))
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("cache-enabled build left no snapshot: %v", err)
	}
}

func TestFailureDetailNilAndPlain(t *testing.T) {
	if FailureDetail(nil) != "" {
		t.Error("nil error should render empty")
	}
	if got := FailureDetail(errors.New("boom")); got != "boom" {
		t.Errorf("plain error should pass through, got %q", got)
	}
}
