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

// std is the nominal default engine plus the model-cache dir its builds read
// when they run: SetModelCache affects only later builds, so bench/'s
// in-process runs share one framework.
var std = &struct {
	eng *Engine
	dir atomic.Value // string
}{}

func init() {
	std.dir.Store("")
	std.eng, _ = New(cell.OperatingCondition{}, "") // nominal always validates
	std.eng.build = func(ctx context.Context, opts errormodel.Options, _ string) (*core.Framework, error) {
		return buildFramework(ctx, opts, std.dir.Load().(string))
	}
}

// SetModelCache points the default engine's later builds at the model cache
// in dir when enabled (modelcache.Dir's rule).
func SetModelCache(enabled bool, dir string) { std.dir.Store(modelcache.Dir(enabled, dir)) }

// SharedOptions is Engine.Options on the default engine.
func SharedOptions() errormodel.Options { return std.eng.Options() }

// SharedFramework is Engine.Framework on the default engine, unbounded.
func SharedFramework() (*core.Framework, error) {
	return std.eng.Framework(context.Background())
}

// AnalyzeWithOpts is Engine.Analyze on the default engine.
func AnalyzeWithOpts(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
	return std.eng.Analyze(ctx, name, scenarios, opts)
}

// AnalyzeAtPoint is Engine.AnalyzeAt on the default engine.
func AnalyzeAtPoint(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	return std.eng.AnalyzeAt(ctx, name, scenarios, opts, cond, ratio)
}
