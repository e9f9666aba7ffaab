// Package harness wires the framework to the Table 2 benchmarks and formats
// the paper's tables and figures. The commands under cmd/ and the repository
// benchmarks are thin wrappers over this package.
package harness

import (
	"context"
	"fmt"
	"strings"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
	"tsperr/internal/pool"
)

// DefaultScenarios is the number of input datasets per benchmark; their
// spread is the data-variation axis of Figure 3.
const DefaultScenarios = 8

// Engine is the once-per-design half of the paper's flow held as one value:
// the framework calibrated and trained at the engine's operating condition,
// and the frameworks of the other conditions an operating-point search
// visits. Each command, daemon and test holds its own engine, and two
// engines share nothing. Its methods are safe for concurrent use.
//
// A framework is built by the first caller that needs it, under that
// caller's context; a caller arriving during the build waits for it under
// its own context. A failed or cancelled build is not kept (pool.Memo).
type Engine struct {
	cond     cell.OperatingCondition
	cacheDir string
	// build is buildFramework; tests substitute it.
	build func(ctx context.Context, opts errormodel.Options, dir string) (*core.Framework, error)

	own    *pool.Memo[struct{}, *core.Framework] // the framework at cond
	others *pool.Memo[string, *core.Framework]   // by cond.String()
}

// New returns an engine whose framework builds at cond through the model
// cache in cacheDir; "" builds uncached. Nothing is built before first use.
// A condition outside the cell library's range is an error.
func New(cond cell.OperatingCondition, cacheDir string) (*Engine, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cond:     cond,
		cacheDir: cacheDir,
		build:    buildFramework,
		own:      pool.NewMemo[struct{}, *core.Framework](1),
		others:   pool.NewMemo[string, *core.Framework](maxConditionFrameworks),
	}, nil
}

// buildFramework is an engine's build: through the model cache in dir unless
// dir is "" (the condition is part of the cache key, so each condition warms
// independently).
func buildFramework(ctx context.Context, opts errormodel.Options, dir string) (*core.Framework, error) {
	if dir == "" {
		return core.NewFrameworkContext(ctx, opts)
	}
	f, _, err := core.NewFrameworkCachedContext(ctx, opts, dir)
	return f, err
}

// optionsAt returns the default errormodel options at an operating condition.
func optionsAt(cond cell.OperatingCondition) errormodel.Options {
	opts := errormodel.DefaultOptions()
	opts.Cond = cond
	return opts
}

// Options returns the errormodel options the engine's framework is (or will
// be) built with, its condition included: the options a daemon must
// fingerprint under.
func (e *Engine) Options() errormodel.Options { return optionsAt(e.cond) }

// CacheDir returns the model-cache directory the engine builds through, or
// "" when it builds uncached.
func (e *Engine) CacheDir() string { return e.cacheDir }

// Framework builds (once) the calibrated machine and trained datapath model
// shared by all benchmarks — the machine-dependent "training" the paper
// performs once per design.
func (e *Engine) Framework() (*core.Framework, error) {
	return e.framework(context.Background(), e.cond)
}

// framework returns the framework at cond, building it under ctx on first
// use: the engine's own at its condition, and otherwise one of the
// per-condition frameworks, of which it keeps maxConditionFrameworks.
func (e *Engine) framework(ctx context.Context, cond cell.OperatingCondition) (*core.Framework, error) {
	build := func(ctx context.Context) (*core.Framework, error) {
		return e.build(ctx, optionsAt(cond), e.cacheDir)
	}
	if cond.Equal(e.cond) {
		return e.own.Get(ctx, struct{}{}, build)
	}
	return e.others.Get(ctx, cond.String(), build)
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

// Analyze runs the full framework on one named benchmark, honoring ctx
// cancellation and deadlines and the resilience options (worker bound,
// retries, fail-fast, graceful degradation via MinScenarios); it is the
// daemon's server.Config.Analyze.
func (e *Engine) Analyze(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	f, err := e.framework(ctx, e.cond)
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
