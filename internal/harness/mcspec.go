package harness

import (
	"context"
	"fmt"
	"sync"

	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
	"tsperr/internal/montecarlo"
)

// specEntry is one MCSpec memo entry, keyed by "benchmark|scenarios". Its
// once lets concurrent chunk requests for the same benchmark share a single
// analytic run, bound to the context of the caller that started it; a failed
// build is not latched (the entry is dropped), matching Framework's retry
// semantics.
type specEntry struct {
	once sync.Once
	spec montecarlo.Spec
	err  error
}

// MCSpec rebuilds the Monte Carlo simulation spec for one benchmark — the
// cluster.SpecSource a worker node wires as server.Config.ChunkSource. The
// conditionals are derived by running the analytic pipeline against this
// engine's framework, exactly as a coordinator derives its own before
// fanning chunks out; with matching model fingerprints (enforced by the chunk
// endpoint) the rebuilt spec is bit-identical to the coordinator's, so
// montecarlo.RunChunk over it returns the same bytes a local execution would
// have produced. Results are memoized per (benchmark, scenarios).
func (e *Engine) MCSpec(ctx context.Context, benchmark string, scenarios int) (montecarlo.Spec, error) {
	if scenarios <= 0 {
		scenarios = DefaultScenarios
	}
	key := fmt.Sprintf("%s|%d", benchmark, scenarios)
	for {
		e.specMu.Lock()
		se, ok := e.specMemo[key]
		if !ok {
			se = &specEntry{}
			e.specMemo[key] = se
		}
		e.specMu.Unlock()
		ran := false
		se.once.Do(func() {
			ran = true
			se.spec, se.err = e.buildMCSpec(ctx, benchmark, scenarios)
		})
		if se.err == nil {
			return se.spec, nil
		}
		// Do not latch the failure: a context cancellation or a transient
		// framework-build error must not poison every later chunk request.
		e.specMu.Lock()
		if e.specMemo[key] == se {
			delete(e.specMemo, key)
		}
		e.specMu.Unlock()
		// A caller that joined another caller's run got that caller's error,
		// possibly its cancellation; while this caller's own context is live,
		// it runs the build itself.
		if ran || ctx.Err() != nil {
			return montecarlo.Spec{}, se.err
		}
	}
}

// buildMCSpec runs the strict analytic pipeline and assembles the spec from
// the benchmark's program plus the per-scenario conditionals it derived. A
// strict (non-degraded) run covers every scenario, so the conditionals align
// index-for-index with the coordinator's — coordinators never distribute
// degraded jobs (core marks them LocalOnly).
func (e *Engine) buildMCSpec(ctx context.Context, benchmark string, scenarios int) (montecarlo.Spec, error) {
	b, err := mibench.ByName(benchmark)
	if err != nil {
		return montecarlo.Spec{}, err
	}
	rep, err := e.Analyze(ctx, benchmark, scenarios, core.AnalyzeOpts{})
	if err != nil {
		return montecarlo.Spec{}, err
	}
	if len(rep.Scenarios) != scenarios {
		return montecarlo.Spec{}, fmt.Errorf("harness: %s: analytic run covered %d/%d scenarios",
			benchmark, len(rep.Scenarios), scenarios)
	}
	conds := make([]*errormodel.Conditionals, len(rep.Scenarios))
	for i := range rep.Scenarios {
		conds[i] = rep.Scenarios[i].Cond
	}
	return montecarlo.Spec{
		Prog:  b.Prog,
		Setup: b.Setup,
		Cond:  conds,
	}, nil
}
