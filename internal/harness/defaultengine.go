package harness

import (
	"context"
	"sync/atomic"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/modelcache"
)

// The package-level functions below are one-line wrappers over a default
// engine. They exist only because the nested bench/ module compiles against
// them; the benchmark refresh moves bench/ onto Engine and deletes this file.

// std is the default engine: nominal, and uncached until SetModelCache.
var std atomic.Pointer[Engine]

func init() { SetModelCache(false, "") }

// SetModelCache replaces the default engine with a nominal engine that
// builds through the model cache in dir when enabled (modelcache.Dir's
// rule). bench/ calls it at the start of each run, before any analysis.
func SetModelCache(enabled bool, dir string) {
	e, _ := New(cell.OperatingCondition{}, modelcache.Dir(enabled, dir)) // nominal always validates
	std.Store(e)
}

// SharedOptions is Engine.Options on the default engine.
func SharedOptions() errormodel.Options { return std.Load().Options() }

// SharedFramework is Engine.Framework on the default engine, unbounded.
func SharedFramework() (*core.Framework, error) {
	return std.Load().Framework(context.Background())
}

// AnalyzeWithOpts is Engine.Analyze on the default engine.
func AnalyzeWithOpts(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
	return std.Load().Analyze(ctx, name, scenarios, opts)
}

// AnalyzeAtPoint is Engine.AnalyzeAt on the default engine.
func AnalyzeAtPoint(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	return std.Load().AnalyzeAt(ctx, name, scenarios, opts, cond, ratio)
}
