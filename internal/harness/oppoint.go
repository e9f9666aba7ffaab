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
	"tsperr/internal/modelcache"
)

// Operating-point serving. The shared framework is built at one condition
// (SetOperatingCondition; nominal by default) and answers plain analyses
// concurrently. Requests at OTHER (voltage, temperature) points — the
// oppoint search's sub-requests — go through a small registry of
// per-condition frameworks: each condition gets its own calibrated machine
// (warm from the model cache when enabled, since the condition is part of
// the cache key), and a per-entry mutex serializes analyses on it because
// ratio retargeting mutates shared machine state. Requests at the shared
// framework's own condition and default ratio delegate to the plain path so
// they share its concurrency and exact bytes.

// sharedCond is the condition SharedFramework builds at; guarded by fwMu.
var sharedCond cell.OperatingCondition

// SetOperatingCondition sets the operating condition for frameworks built
// after the call (the -voltage/-temp knobs). Like SetModelCache, commands
// invoke it before their first SharedFramework use; it does not rebuild an
// already-built shared framework.
func SetOperatingCondition(cond cell.OperatingCondition) error {
	if err := cond.Validate(); err != nil {
		return err
	}
	fwMu.Lock()
	defer fwMu.Unlock()
	sharedCond = cond
	return nil
}

// OperatingCondition returns the condition configured for the shared
// framework.
func OperatingCondition() cell.OperatingCondition {
	fwMu.Lock()
	defer fwMu.Unlock()
	return sharedCond
}

// SharedOptions returns the errormodel options the shared framework is (or
// will be) built with, including the configured operating condition — the
// options a daemon must fingerprint under.
func SharedOptions() errormodel.Options {
	opts := errormodel.DefaultOptions()
	fwMu.Lock()
	opts.Cond = sharedCond
	fwMu.Unlock()
	return opts
}

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

var (
	condMu  sync.Mutex
	condFWs map[string]*condEntry
	condLRU []string // most recently used last
)

// conditionEntry returns (creating if needed) the registry entry for a
// normalized condition, updating LRU order and evicting the coldest entry
// beyond the bound.
func conditionEntry(key string) *condEntry {
	condMu.Lock()
	defer condMu.Unlock()
	if condFWs == nil {
		condFWs = make(map[string]*condEntry)
	}
	for i, k := range condLRU {
		if k == key {
			condLRU = append(append(condLRU[:i:i], condLRU[i+1:]...), key)
			return condFWs[key]
		}
	}
	if len(condLRU) >= maxConditionFrameworks {
		evict := condLRU[0]
		condLRU = condLRU[1:]
		// The entry vanishes from the registry; an in-flight analysis holding
		// its mutex finishes on its private framework unharmed.
		delete(condFWs, evict)
	}
	e := &condEntry{}
	condFWs[key] = e
	condLRU = append(condLRU, key)
	return e
}

// buildAtCondition builds a framework at the given condition, honoring the
// model-cache policy configured via SetModelCache (the condition is part of
// the cache key, so each condition warms independently).
func buildAtCondition(cond cell.OperatingCondition) (*core.Framework, error) {
	opts := errormodel.DefaultOptions()
	opts.Cond = cond
	fwMu.Lock()
	enabled, dir := cacheEnabled, cacheDir
	fwMu.Unlock()
	if enabled {
		if dir == "" {
			if d, err := modelcache.DefaultDir(); err == nil {
				dir = d
			}
		}
		if dir != "" {
			f, _, err := buildFrameworkCached(opts, dir)
			return f, err
		}
	}
	return buildFramework(opts)
}

// AnalyzeAtPoint analyzes one benchmark at an explicit operating point:
// a (voltage, temperature) condition and a frequency ratio (0 means the
// design's configured working ratio). Points matching the shared
// framework's condition and the default ratio delegate to the plain
// AnalyzeWithOpts path — bit-identical reports, full concurrency; all other
// points run serialized on that condition's registry framework with the
// machine re-targeted for the call and restored after it.
func AnalyzeAtPoint(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	if ratio != 0 && !(ratio > 0 && !math.IsInf(ratio, 0)) {
		return nil, fmt.Errorf("harness: bad frequency ratio %v", ratio)
	}
	defaultRatio := errormodel.DefaultOptions().WorkingRatio
	atDefaultRatio := ratio == 0 ||
		math.Float64bits(ratio) == math.Float64bits(defaultRatio)
	if cond.Equal(OperatingCondition()) && atDefaultRatio {
		return AnalyzeWithOpts(ctx, name, scenarios, opts)
	}
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	e := conditionEntry(cond.String())
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fw == nil {
		f, err := buildAtCondition(cond)
		if err != nil {
			return nil, err
		}
		e.fw = f
	}
	r := ratio
	if r == 0 {
		r = e.fw.Machine.Opts.WorkingRatio
	}
	return e.fw.AnalyzeAtRatio(ctx, b.Name, SpecFor(b, scenarios), r, opts)
}
