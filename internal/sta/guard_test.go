package sta_test

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"tsperr/internal/errormodel"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

// TestCriticalPathsAllocs bounds the allocations of one CriticalPaths call
// by the paths it returns and the states its searches hold. A
// per-expansion allocation (a copied suffix, a boxed heap entry) overshoots
// the object bound on the multiplier's searches, which expand up to ~10^3
// states (~10^5 before the search's sums were exact); what remains is each
// path's gate slice plus the search arena's chunks. The byte bound admits one pass
// over the arena: 16 bytes per state and per heap entry, a quarter more for
// the last chunks' unused tails, the first chunk of each, the paths and a
// few small headers. An arena that grows by copying (append's 1.25x steps
// over 24-byte states) allocates five times that on the largest searches.
func TestCriticalPathsAllocs(t *testing.T) {
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sta.NewEngine(gen.Multiplier().N, model, 1200, opts.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	const entryBytes, chunkBytes = 16, 64 << 10
	for _, ep := range endpoints(e.N) {
		var paths []netlist.Path
		allocs := testing.AllocsPerRun(1, func() { paths = e.CriticalPaths(ep, opts.KPaths) })
		if limit := float64(8*len(paths) + 64); allocs > limit {
			t.Errorf("endpoint %d: CriticalPaths allocates %.0f objects for %d paths, want <= %.0f",
				ep, allocs, len(paths), limit)
		}
		_, states, heap := e.SearchSize(ep, opts.KPaths)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		paths = e.CriticalPaths(ep, opts.KPaths)
		runtime.ReadMemStats(&after)
		held := 0
		for _, p := range paths {
			held += 16*len(p.Gates) + 256 // gate slice, dedup key, path header
		}
		got := after.TotalAlloc - before.TotalAlloc
		if limit := 1.25*entryBytes*float64(states+heap) + 2*chunkBytes + 4<<10 + float64(held); float64(got) > limit {
			t.Errorf("endpoint %d: CriticalPaths allocates %d bytes for %d states, %d heap entries and %d paths, want <= %.0f",
				ep, got, states, heap, len(paths), limit)
		}
	}
}

// TestEngineConcurrentReaders drives one fresh engine from several
// goroutines, as the DTA analyzer's workers share it, and checks each sees
// the results of a serial run on a twin engine. Under -race it pins that
// the first-use fill of the engine's tables is synchronized and nothing is
// written afterwards.
func TestEngineConcurrentReaders(t *testing.T) {
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		t.Fatal(err)
	}
	n := gen.Control().N
	serial, err := sta.NewEngine(n, model, 1200, opts.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sta.NewEngine(n, model, 1200, opts.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps := endpoints(n)
	type results struct {
		paths [][]netlist.Path
		forms []map[netlist.GateID][]variation.Canon
		p99   float64
	}
	run := func(e *sta.Engine) results {
		var r results
		for _, ep := range eps {
			r.paths = append(r.paths, e.CriticalPaths(ep, opts.KPaths))
		}
		for s := 0; s < n.Stages; s++ {
			r.forms = append(r.forms, e.EndpointSlackForms(s, opts.KPaths))
		}
		r.p99 = e.MaxDelayPercentile(0.99, opts.KPaths)
		return r
	}
	same := func(a, b results) bool {
		if math.Float64bits(a.p99) != math.Float64bits(b.p99) || len(a.forms) != len(b.forms) {
			return false
		}
		for i := range a.paths {
			if !samePaths(a.paths[i], b.paths[i]) {
				return false
			}
		}
		for s := range a.forms {
			if len(a.forms[s]) != len(b.forms[s]) {
				return false
			}
			for ep, fa := range a.forms[s] {
				fb := b.forms[s][ep]
				if len(fa) != len(fb) {
					return false
				}
				for i := range fa {
					if !sameCanon(fa[i], fb[i]) {
						return false
					}
				}
			}
		}
		return true
	}
	want := run(serial)
	const workers = 4
	got := make([]results, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(shared)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !same(got[w], want) {
			t.Errorf("goroutine %d saw results different from the serial run", w)
		}
	}
}
