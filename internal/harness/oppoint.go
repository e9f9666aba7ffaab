package harness

import (
	"context"
	"fmt"
	"math"
	"sync"

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
// not accumulate one per point. Eviction is LRU; an evicted condition
// rebuilds (warm from the model cache when enabled) on next use.
const maxConditionFrameworks = 4

// condEntry is one condition's framework, built on first use.
type condEntry struct {
	// mu serializes the build only; a built framework serves concurrent
	// analyses.
	mu sync.Mutex
	fw *core.Framework // guarded by mu
}

// frameworkAt returns ce's framework, building it at cond on first use.
// Concurrent callers during the build wait for the single in-flight
// attempt; unlike a sync.Once, a failed build is not latched, so a later
// call retries instead of replaying the old error forever.
func (e *Engine) frameworkAt(ce *condEntry, cond cell.OperatingCondition) (*core.Framework, error) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.fw == nil {
		f, err := e.build(optionsAt(cond), e.cacheDir)
		if err != nil {
			return nil, err
		}
		ce.fw = f
	}
	return ce.fw, nil
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
		// The entry vanishes from the registry; an in-flight analysis on its
		// framework finishes unharmed.
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
	var f *core.Framework
	if cond.Equal(e.cond) {
		f, err = e.Framework()
	} else {
		f, err = e.frameworkAt(e.conditionEntry(cond.String()), cond)
	}
	if err != nil {
		return nil, err
	}
	if ratio == 0 {
		ratio = f.Machine.Opts.WorkingRatio
	}
	return f.AnalyzeAtRatio(ctx, b.Name, SpecFor(b, scenarios), ratio, opts)
}
