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

// specMemo caches rebuilt Monte Carlo specs by "benchmark|scenarios". Each
// entry carries a once so concurrent chunk requests for the same benchmark
// share a single analytic run; a failed build is not latched (the entry is
// dropped), matching SharedFramework's retry semantics. The shared run is
// bound to the context of the caller that started it.
var (
	specMu   sync.Mutex
	specMemo = map[string]*specEntry{}
)

type specEntry struct {
	once sync.Once
	spec montecarlo.Spec
	err  error
}

// MCSpec rebuilds the Monte Carlo simulation spec for one benchmark — the
// cluster.SpecSource a worker node wires as server.Config.ChunkSource. The
// conditionals are derived by running the analytic pipeline against this
// node's shared framework, exactly as a coordinator derives its own before
// fanning chunks out; with matching model fingerprints (enforced by the chunk
// endpoint) the rebuilt spec is bit-identical to the coordinator's, so
// montecarlo.RunChunk over it returns the same bytes a local execution would
// have produced. Results are memoized per (benchmark, scenarios).
func MCSpec(ctx context.Context, benchmark string, scenarios int) (montecarlo.Spec, error) {
	if scenarios <= 0 {
		scenarios = DefaultScenarios
	}
	key := fmt.Sprintf("%s|%d", benchmark, scenarios)
	for {
		specMu.Lock()
		e, ok := specMemo[key]
		if !ok {
			e = &specEntry{}
			specMemo[key] = e
		}
		specMu.Unlock()
		ran := false
		e.once.Do(func() {
			ran = true
			e.spec, e.err = buildMCSpec(ctx, benchmark, scenarios)
		})
		if e.err == nil {
			return e.spec, nil
		}
		// Do not latch the failure: a context cancellation or a transient
		// framework-build error must not poison every later chunk request.
		specMu.Lock()
		if specMemo[key] == e {
			delete(specMemo, key)
		}
		specMu.Unlock()
		// A caller that joined another caller's run got that caller's error,
		// possibly its cancellation; while this caller's own context is live,
		// it runs the build itself.
		if ran || ctx.Err() != nil {
			return montecarlo.Spec{}, e.err
		}
	}
}

// buildMCSpec runs the strict analytic pipeline and assembles the spec from
// the benchmark's program plus the per-scenario conditionals it derived. A
// strict (non-degraded) run covers every scenario, so the conditionals align
// index-for-index with the coordinator's — coordinators never distribute
// degraded jobs (core marks them LocalOnly).
func buildMCSpec(ctx context.Context, benchmark string, scenarios int) (montecarlo.Spec, error) {
	b, err := mibench.ByName(benchmark)
	if err != nil {
		return montecarlo.Spec{}, err
	}
	rep, err := AnalyzeWithOpts(ctx, benchmark, scenarios, core.AnalyzeOpts{})
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
