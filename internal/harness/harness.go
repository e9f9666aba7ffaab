// Package harness wires the framework to the Table 2 benchmarks and formats
// the paper's tables and figures. The commands under cmd/ and the repository
// benchmarks are thin wrappers over this package.
package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
	"tsperr/internal/modelcache"
)

// DefaultScenarios is the number of input datasets per benchmark; their
// spread is the data-variation axis of Figure 3.
const DefaultScenarios = 8

var (
	fwMu sync.Mutex
	// fw is the lazily built shared framework; guarded by fwMu.
	fw *core.Framework

	// Model-cache policy for SharedFramework. Disabled by default so
	// library consumers (and `go test ./...`) never touch the filesystem;
	// the CLI commands opt in via SetModelCache before first use.
	cacheEnabled bool   // guarded by fwMu
	cacheDir     string // guarded by fwMu
)

// Build hooks, substituted by tests to exercise failure and retry semantics.
var (
	buildFramework       = core.NewFramework
	buildFrameworkCached = core.NewFrameworkCached
)

// SetModelCache configures whether SharedFramework consults the persistent
// model cache and where; dir == "" selects modelcache.DefaultDir. It only
// affects frameworks built after the call, so commands invoke it before
// their first SharedFramework use.
func SetModelCache(enabled bool, dir string) {
	fwMu.Lock()
	defer fwMu.Unlock()
	cacheEnabled = enabled
	cacheDir = dir
}

// SharedFramework builds (once) the calibrated machine and trained datapath
// model shared by all benchmarks — the machine-dependent "training" the
// paper performs once per design. Concurrent callers during the build wait
// for the single in-flight attempt; unlike a sync.Once, a failed build is
// not latched, so a later call retries instead of replaying the old error
// forever.
func SharedFramework() (*core.Framework, error) {
	fwMu.Lock()
	defer fwMu.Unlock()
	if fw != nil {
		return fw, nil
	}
	f, err := buildAt(sharedCond, cacheDirFor(cacheEnabled, cacheDir))
	if err != nil {
		return nil, err
	}
	fw = f
	return fw, nil
}

// ModelCacheDir returns the directory the model-cache policy set by
// SetModelCache resolves to: "" when the cache is off or no usable directory
// exists, in which case frameworks build uncached.
func ModelCacheDir() string {
	fwMu.Lock()
	defer fwMu.Unlock()
	return cacheDirFor(cacheEnabled, cacheDir)
}

// cacheDirFor is the rule behind ModelCacheDir: an enabled cache with an
// empty dir uses modelcache.DefaultDir, and "" means build uncached.
func cacheDirFor(enabled bool, dir string) string {
	if !enabled {
		return ""
	}
	if dir != "" {
		return dir
	}
	def, err := modelcache.DefaultDir()
	if err != nil {
		return ""
	}
	return def
}

// buildAt builds a framework at an operating condition, through the model
// cache in dir unless dir is "" (the condition is part of the cache key, so
// each condition warms independently).
func buildAt(cond cell.OperatingCondition, dir string) (*core.Framework, error) {
	opts := errormodel.DefaultOptions()
	opts.Cond = cond
	if dir == "" {
		return buildFramework(opts)
	}
	f, _, err := buildFrameworkCached(opts, dir)
	return f, err
}

// SpecFor converts a benchmark into an analyzable program spec.
func SpecFor(b mibench.Benchmark, scenarios int) core.ProgramSpec {
	if scenarios <= 0 {
		scenarios = DefaultScenarios
	}
	return core.ProgramSpec{
		Prog:         b.Prog,
		Setup:        b.Setup,
		Scenarios:    scenarios,
		ScaleToInsts: b.ScaleTo,
	}
}

// Analyze runs the full framework on one named benchmark with strict
// failure semantics, honoring ctx cancellation and deadlines.
func Analyze(ctx context.Context, name string, scenarios int) (*core.Report, error) {
	return AnalyzeWithOpts(ctx, name, scenarios, core.AnalyzeOpts{})
}

// AnalyzeWithOpts is Analyze with explicit resilience options (worker
// bound, retries, fail-fast, graceful degradation via MinScenarios).
func AnalyzeWithOpts(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	f, err := SharedFramework()
	if err != nil {
		return nil, err
	}
	return f.AnalyzeWithOpts(ctx, b.Name, SpecFor(b, scenarios), opts)
}

// Table2Header returns the header of the Table 2 reproduction.
func Table2Header() string {
	return fmt.Sprintf("%-13s %15s %7s %10s %10s %8s %8s %8s %8s",
		"Benchmark", "Instructions", "Blocks", "Train(s)", "Sim(s)",
		"Mean(%)", "SD(%)", "dK(l)", "dK(R)")
}

// Table2Row formats one report as a Table 2 row. A degraded run (some
// scenarios dropped, survivors above the MinScenarios floor) is flagged at
// the end of the row so the condition is visible in every table output.
func Table2Row(rep *core.Report) string {
	e := rep.Estimate
	row := fmt.Sprintf("%-13s %15d %7d %10.2f %10.2f %8.3f %8.3f %8.3f %8.3f",
		rep.Name, rep.Instructions, rep.BasicBlocks,
		rep.Training.Seconds(), rep.Simulation.Seconds(),
		100*e.MeanErrorRate(), 100*e.StdErrorRate(),
		e.DKLambda, e.DKCount)
	if rep.Degraded {
		row += fmt.Sprintf("  DEGRADED(%d/%d scenarios failed)",
			rep.FailedScenarios, rep.FailedScenarios+len(rep.Scenarios))
	}
	return row
}

// FailureDetail renders the per-scenario breakdown of an Analyze error or a
// degraded report's Failures: one line per failing scenario with its phase
// tag, ready for CLI stderr. It returns "" for nil.
func FailureDetail(err error) string {
	if err == nil {
		return ""
	}
	ses := core.ScenarioErrors(err)
	if len(ses) == 0 {
		return err.Error()
	}
	var sb strings.Builder
	for i, se := range ses {
		if i > 0 {
			sb.WriteByte('\n')
		}
		if se.Scenario >= 0 {
			fmt.Fprintf(&sb, "scenario %d [%s]: %v", se.Scenario, se.Phase, se.Err)
		} else {
			fmt.Fprintf(&sb, "[%s]: %v", se.Phase, se.Err)
		}
		if se.Attempts > 1 {
			fmt.Fprintf(&sb, " (after %d attempts)", se.Attempts)
		}
	}
	return sb.String()
}

// Figure3Point is one sample of a benchmark's error-rate CDF curve with its
// Section 6.4 bounds and the performance-improvement top-axis label.
type Figure3Point struct {
	RatePct        float64
	CDF, Lo, Hi    float64
	ImprovementPct float64
}

// Figure3Series samples the CDF over [0, maxRatePct] with the given number
// of points.
func Figure3Series(rep *core.Report, pm cpu.PerfModel, maxRatePct float64, points int) []Figure3Point {
	if points < 2 {
		points = 2
	}
	out := make([]Figure3Point, points)
	for i := range out {
		pct := maxRatePct * float64(i) / float64(points-1)
		rate := pct / 100
		c := rep.Estimate.ErrorRateCDF(rate)
		lo, hi := rep.Estimate.ErrorRateCDFBounds(rate)
		out[i] = Figure3Point{
			RatePct:        pct,
			CDF:            c,
			Lo:             lo,
			Hi:             hi,
			ImprovementPct: pm.ImprovementPct(rate),
		}
	}
	return out
}

// RenderFigure3 renders a benchmark's CDF curve as text (estimate with
// bracketing bounds), the textual stand-in for one panel of Figure 3.
func RenderFigure3(rep *core.Report, pm cpu.PerfModel, maxRatePct float64, points int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (mean %.3f%%, sd %.3f%%)\n", rep.Name,
		100*rep.Estimate.MeanErrorRate(), 100*rep.Estimate.StdErrorRate())
	fmt.Fprintf(&sb, "%10s %10s %8s %8s %8s  %s\n",
		"rate(%)", "perf(%)", "lower", "cdf", "upper", "")
	for _, p := range Figure3Series(rep, pm, maxRatePct, points) {
		bar := strings.Repeat("#", int(p.CDF*40+0.5))
		fmt.Fprintf(&sb, "%10.3f %10.2f %8.3f %8.3f %8.3f  |%s\n",
			p.RatePct, p.ImprovementPct, p.Lo, p.CDF, p.Hi, bar)
	}
	return sb.String()
}
