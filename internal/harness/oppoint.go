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
// engine's condition and serves its plain analyses and every operating
// point at its voltage, any temperature and any ratio, concurrently: an
// analysis passes its clock period down, takes the datapath model at it
// from the framework's period-free table, and writes nothing on the
// framework. Requests at OTHER voltages — the
// oppoint search's sub-requests — go through a small registry of
// per-voltage frameworks, each rebuilt from the engine's calibrated scales
// (see buildAt).

// maxConditionFrameworks bounds the per-voltage registry: a machine holds
// full netlists and engines, so an unbounded voltage grid must not
// accumulate one per point. Eviction is LRU; an analysis running on an
// evicted framework finishes unharmed, and the voltage rebuilds from the
// engine's scales on next use.
const maxConditionFrameworks = 4

// AnalyzeAt analyzes one benchmark at an explicit operating point: a
// (voltage, temperature) condition and a frequency ratio (0 means the
// design's configured working ratio); it is the daemon's
// server.Config.AnalyzeAt. A condition at the engine's voltage runs on its
// own framework, and any other on that voltage's registry framework; either
// way core.Framework.AnalyzeAt runs the point, so the engine's condition at
// the working ratio is the plain analysis, bit for bit.
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
	return f.AnalyzeAt(ctx, b.Name, SpecFor(b, scenarios), cond, ratio, opts)
}
