package harness

import (
	"context"
	"fmt"
	"math"
	"sync"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
)

// Operating-point serving. An engine's own framework is built at the
// engine's condition and answers plain analyses concurrently. Requests at
// OTHER (voltage, temperature) points — the oppoint search's sub-requests —
// go through a small registry of per-condition frameworks: each condition
// gets its own calibrated machine (warm from the model cache when enabled,
// since the condition is part of the cache key), and a per-entry mutex
// serializes analyses on it because ratio retargeting mutates shared machine
// state. Requests at the engine's own condition and default ratio delegate to
// the plain path so they share its concurrency and exact bytes.

// maxConditionFrameworks bounds the per-condition registry: a calibrated
// machine holds full netlists and engines, so an unbounded V/T grid must
// not accumulate one per point. Eviction is LRU; an evicted condition
// rebuilds (warm from the model cache when enabled) on next use.
const maxConditionFrameworks = 4

type condEntry struct {
	// mu serializes framework build and every analysis at this condition:
	// ratio retargeting mutates the machine, so concurrent analyses on one
	// entry are unsafe.
	mu sync.Mutex
	fw *core.Framework
}

// conditionEntry returns (creating if needed) the registry entry for a
// normalized condition, updating LRU order and evicting the coldest entry
// beyond the bound.
func (e *Engine) conditionEntry(key string) *condEntry {
	e.condMu.Lock()
	defer e.condMu.Unlock()
	for i, k := range e.condLRU {
		if k == key {
			e.condLRU = append(append(e.condLRU[:i:i], e.condLRU[i+1:]...), key)
			return e.condFWs[key]
		}
	}
	if len(e.condLRU) >= maxConditionFrameworks {
		evict := e.condLRU[0]
		e.condLRU = e.condLRU[1:]
		// The entry vanishes from the registry; an in-flight analysis holding
		// its mutex finishes on its private framework unharmed.
		delete(e.condFWs, evict)
	}
	ce := &condEntry{}
	e.condFWs[key] = ce
	e.condLRU = append(e.condLRU, key)
	return ce
}

// AnalyzeAt analyzes one benchmark at an explicit operating point: a
// (voltage, temperature) condition and a frequency ratio (0 means the
// design's configured working ratio); it is the daemon's
// server.Config.AnalyzeAt. Points matching the engine's condition and the
// default ratio delegate to Analyze — bit-identical reports, full
// concurrency; all other points run serialized on that condition's registry
// framework with the machine re-targeted for the call and restored after it.
func (e *Engine) AnalyzeAt(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	if ratio != 0 && !(ratio > 0 && !math.IsInf(ratio, 0)) {
		return nil, fmt.Errorf("harness: bad frequency ratio %v", ratio)
	}
	defaultRatio := errormodel.DefaultOptions().WorkingRatio
	atDefaultRatio := ratio == 0 ||
		math.Float64bits(ratio) == math.Float64bits(defaultRatio)
	if cond.Equal(e.cond) && atDefaultRatio {
		return e.Analyze(ctx, name, scenarios, opts)
	}
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	ce := e.conditionEntry(cond.String())
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.fw == nil {
		f, err := e.build(optionsAt(cond), e.cacheDir)
		if err != nil {
			return nil, err
		}
		ce.fw = f
	}
	r := ratio
	if r == 0 {
		r = ce.fw.Machine.Opts.WorkingRatio
	}
	return ce.fw.AnalyzeAtRatio(ctx, b.Name, SpecFor(b, scenarios), r, opts)
}
