package harness

import (
	"context"
	"fmt"
	"math"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/mibench"
)

// Operating-point serving. An engine's own framework is built at the
// engine's condition and serves its plain analyses and its operating-point
// overrides at any ratio, concurrently: an analysis passes its clock period
// down and writes nothing on the framework. Requests at OTHER (voltage,
// temperature) points — the oppoint search's sub-requests — go through a
// small registry of per-condition frameworks: each condition gets its own
// calibrated machine (warm from the model cache when enabled, since the
// condition is part of the cache key).

// maxConditionFrameworks bounds the per-condition registry: a calibrated
// machine holds full netlists and engines, so an unbounded V/T grid must
// not accumulate one per point. Eviction is LRU; an analysis running on an
// evicted framework finishes unharmed, and the condition rebuilds (warm from
// the model cache when enabled) on next use.
const maxConditionFrameworks = 4

// AnalyzeAt analyzes one benchmark at an explicit operating point: a
// (voltage, temperature) condition and a frequency ratio (0 means the
// design's configured working ratio); it is the daemon's
// server.Config.AnalyzeAt. The engine's own condition runs on its own
// framework, and any other on that condition's registry framework; either
// way core.Framework.AnalyzeAtRatio runs the point, so the working ratio is
// the plain analysis, bit for bit.
func (e *Engine) AnalyzeAt(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	if ratio != 0 && !(ratio > 0 && !math.IsInf(ratio, 0)) {
		return nil, fmt.Errorf("harness: bad frequency ratio %v", ratio)
	}
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	f, err := e.framework(ctx, cond)
	if err != nil {
		return nil, err
	}
	if ratio == 0 {
		ratio = f.Machine.Opts.WorkingRatio
	}
	return f.AnalyzeAtRatio(ctx, b.Name, SpecFor(b, scenarios), ratio, opts)
}
