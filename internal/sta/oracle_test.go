package sta_test

import (
	"container/heap"
	"math"
	"sort"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

// The reference oracles below are the engine's original kernels, kept
// verbatim apart from reaching the engine through its exported API: the
// per-call sigma and max-arrival recomputation, the container/heap search
// over copied suffixes, and the greedy StatMin that rescans every pair's
// correlation after each merge. The production kernels must reproduce them
// bit for bit.

func refScalarDelay(e *sta.Engine, id netlist.GateID, m sta.Metric) float64 {
	d := e.GateDelay(id)
	switch m {
	case sta.MetricWorst:
		return d.Mean + 2.3263478740408408*d.Std()
	case sta.MetricBest:
		return d.Mean - 2.3263478740408408*d.Std()
	default:
		return d.Mean
	}
}

func refMaxArrival(e *sta.Engine, m sta.Metric) []float64 {
	arr := make([]float64, e.N.NumGates())
	gates := e.N.Gates()
	topo, err := e.N.TopoOrder()
	if err != nil {
		panic(err)
	}
	for _, id := range topo {
		g := &gates[id]
		if g.Kind.IsSource() {
			arr[id] = refScalarDelay(e, id, m) // clock-to-Q or 0
			continue
		}
		best := math.Inf(-1)
		for _, f := range g.Fanin {
			if arr[f] > best {
				best = arr[f]
			}
		}
		if math.IsInf(best, -1) {
			best = 0
		}
		arr[id] = best + refScalarDelay(e, id, m)
	}
	return arr
}

type refSearchState struct {
	gate     netlist.GateID
	suffix   []netlist.GateID
	sufDelay float64
	priority float64
}

type refStateHeap []*refSearchState

func (h refStateHeap) Len() int            { return len(h) }
func (h refStateHeap) Less(i, j int) bool  { return h[i].priority > h[j].priority }
func (h refStateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refStateHeap) Push(x interface{}) { *h = append(*h, x.(*refSearchState)) }
func (h *refStateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

func refKCriticalTo(e *sta.Engine, ep netlist.GateID, k int, m sta.Metric, arr []float64) []netlist.Path {
	g := e.N.Gate(ep)
	if g.Kind != cell.DFF {
		return nil
	}
	driver := g.Fanin[0]
	h := &refStateHeap{}
	start := &refSearchState{
		gate:     driver,
		suffix:   []netlist.GateID{driver},
		sufDelay: refScalarDelay(e, driver, m),
	}
	start.priority = refPrefixBound(e, driver, arr) + start.sufDelay
	heap.Push(h, start)
	var out []netlist.Path
	for h.Len() > 0 && len(out) < k {
		s := heap.Pop(h).(*refSearchState)
		sg := e.N.Gate(s.gate)
		if sg.Kind.IsSource() {
			gates := make([]netlist.GateID, len(s.suffix))
			copy(gates, s.suffix)
			out = append(out, netlist.Path{
				Gates:        gates,
				Endpoint:     ep,
				NominalDelay: s.sufDelay + cell.Setup,
			})
			continue
		}
		for _, f := range sg.Fanin {
			suffix := make([]netlist.GateID, 0, len(s.suffix)+1)
			suffix = append(suffix, f)
			suffix = append(suffix, s.suffix...)
			ns := &refSearchState{
				gate:     f,
				suffix:   suffix,
				sufDelay: s.sufDelay + refScalarDelay(e, f, m),
			}
			ns.priority = refPrefixBound(e, f, arr) + ns.sufDelay
			heap.Push(h, ns)
		}
	}
	return out
}

func refPrefixBound(e *sta.Engine, g netlist.GateID, arr []float64) float64 {
	gate := e.N.Gate(g)
	if gate.Kind.IsSource() {
		return 0
	}
	best := math.Inf(-1)
	for _, f := range gate.Fanin {
		if arr[f] > best {
			best = arr[f]
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

func refStatMin(forms []variation.Canon) (variation.Canon, error) {
	if len(forms) == 0 {
		return variation.Canon{}, sta.ErrEmptySet
	}
	work := make([]variation.Canon, len(forms))
	copy(work, forms)
	if len(work) > sta.StatMinGreedyLimit {
		sort.Slice(work, func(i, j int) bool { return work[i].Mean < work[j].Mean })
		acc := work[sta.StatMinGreedyLimit-1]
		for _, f := range work[sta.StatMinGreedyLimit:] {
			acc = acc.Min(f)
		}
		work = work[:sta.StatMinGreedyLimit]
		work[sta.StatMinGreedyLimit-1] = acc
	}
	for len(work) > 1 {
		bi, bj := 0, 1
		best := math.Inf(-1)
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				if r := work[i].Corr(work[j]); r > best {
					best, bi, bj = r, i, j
				}
			}
		}
		merged := work[bi].Min(work[bj])
		work[bj] = work[len(work)-1]
		work = work[:len(work)-1]
		work[bi] = merged
	}
	return work[0], nil
}

// refCriticalPaths is the original CriticalPaths over the reference search.
func refCriticalPaths(e *sta.Engine, byMetric [3][]netlist.Path) []netlist.Path {
	seen := map[string]bool{}
	var out []netlist.Path
	for _, ps := range byMetric {
		for _, p := range ps {
			key := string(pathBytes(p))
			if seen[key] {
				continue
			}
			seen[key] = true
			d := cell.Setup
			for _, g := range p.Gates {
				d += e.GateDelay(g).Mean
			}
			p.NominalDelay = d
			out = append(out, p)
		}
	}
	netlist.SortPathsByDelay(out)
	return out
}

func pathBytes(p netlist.Path) []byte {
	b := make([]byte, 0, 4*len(p.Gates))
	for _, g := range p.Gates {
		b = append(b, byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
	}
	return b
}

// units returns SSTA engines over the five generated pipeline units.
func units(t testing.TB) []*sta.Engine {
	t.Helper()
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*netlist.Netlist{
		gen.Control().N, gen.Adder().N, gen.Shifter().N, gen.Logic().N, gen.Multiplier().N,
	}
	out := make([]*sta.Engine, len(nets))
	for i, n := range nets {
		if out[i], err = sta.NewEngine(n, model, 1200, opts.SigmaRel, 1); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func endpoints(n *netlist.Netlist) []netlist.GateID {
	var eps []netlist.GateID
	for s := 0; s < n.Stages; s++ {
		eps = append(eps, n.Endpoints(s)...)
	}
	return eps
}

func samePaths(a, b []netlist.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Endpoint != b[i].Endpoint ||
			math.Float64bits(a[i].NominalDelay) != math.Float64bits(b[i].NominalDelay) ||
			len(a[i].Gates) != len(b[i].Gates) {
			return false
		}
		for j := range a[i].Gates {
			if a[i].Gates[j] != b[i].Gates[j] {
				return false
			}
		}
	}
	return true
}

func sameCanon(a, b variation.Canon) bool {
	if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) ||
		math.Float64bits(a.Rand) != math.Float64bits(b.Rand) || len(a.Sens) != len(b.Sens) {
		return false
	}
	for i := range a.Sens {
		if math.Float64bits(a.Sens[i]) != math.Float64bits(b.Sens[i]) {
			return false
		}
	}
	return true
}

// TestKCriticalMatchesReference pins the arena search to the container/heap
// original: for every endpoint of every generated unit, under each ranking
// metric and path budget, the same paths come out in the same order with
// bit-identical delays, and so does the merged CriticalPaths set.
func TestKCriticalMatchesReference(t *testing.T) {
	metrics := [3]sta.Metric{sta.MetricNominal, sta.MetricWorst, sta.MetricBest}
	for _, e := range units(t) {
		var arr [3][]float64
		for i, m := range metrics {
			arr[i] = refMaxArrival(e, m)
		}
		eps := endpoints(e.N)
		if len(eps) == 0 {
			t.Fatalf("%s: no endpoints", e.N.Name)
		}
		for _, k := range []int{1, 3, 8, 32} {
			for _, ep := range eps {
				var want [3][]netlist.Path
				for i, m := range metrics {
					want[i] = refKCriticalTo(e, ep, k, m, arr[i])
					if got := e.KCriticalTo(ep, k, m); !samePaths(got, want[i]) {
						t.Fatalf("%s ep %d k=%d metric %d: paths differ from the reference\n got %v\nwant %v",
							e.N.Name, ep, k, m, got, want[i])
					}
				}
				if got, w := e.CriticalPaths(ep, k), refCriticalPaths(e, want); !samePaths(got, w) {
					t.Fatalf("%s ep %d k=%d: CriticalPaths differs from the reference", e.N.Name, ep, k)
				}
			}
		}
	}
}

// TestStatMinMatchesReference pins the cached-correlation greedy StatMin to
// the full-rescan original on seeded random sets that cross the greedy
// limit and include exact correlation ties (duplicated forms) and
// deterministic (zero-sigma) forms.
func TestStatMinMatchesReference(t *testing.T) {
	model, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := numeric.NewRNG(20190602)
	sizes := []int{1, 2, 3, 4, 7, 16, 17, 31, 64,
		sta.StatMinGreedyLimit - 1, sta.StatMinGreedyLimit, sta.StatMinGreedyLimit + 1, 150, 200}
	for trial := 0; trial < 16; trial++ {
		sizes = append(sizes, 1+rng.Intn(200))
	}
	for _, n := range sizes {
		forms := make([]variation.Canon, 0, n)
		for len(forms) < n {
			switch r := rng.Float64(); {
			case r < 0.15 && len(forms) > 0:
				forms = append(forms, forms[rng.Intn(len(forms))].Clone())
			case r < 0.25:
				forms = append(forms, model.Const(-50+100*rng.Float64()))
			default:
				c := model.Canonical(rng.Float64(), rng.Float64(), 50+300*rng.Float64(), 0.08*rng.Float64())
				forms = append(forms, c.Neg().AddConst(1000))
			}
		}
		want, werr := refStatMin(forms)
		got, gerr := sta.StatMin(forms)
		if (werr == nil) != (gerr == nil) || !sameCanon(got, want) {
			t.Fatalf("n=%d: StatMin = %+v (%v), reference %+v (%v)", n, got, gerr, want, werr)
		}
	}
}

// TestCalibratedScalesPinned pins the five SSTA-calibrated delay scales of
// the default machine as float bits. They are the model-cache snapshot's
// content, so a change here would turn every existing snapshot into a
// silently different machine.
func TestCalibratedScalesPinned(t *testing.T) {
	m, err := errormodel.NewMachine(errormodel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"adder":      0x3fe01305ddefeb63, // 0.502322133513513
		"control":    0x4001625210d6b959, // 2.1730080905464715
		"logic":      0x4018f8c07878a96a, // 6.242921717037783
		"multiplier": 0x3fdc75917734b16f, // 0.4446757949943025
		"shifter":    0x40109bbfed67557f, // 4.152099332267766
	}
	got := m.Scales()
	if len(got) != len(want) {
		t.Fatalf("scales = %v, want %d units", got, len(want))
	}
	for name, bits := range want {
		if g, ok := got[name]; !ok || math.Float64bits(g) != bits {
			t.Errorf("%s scale = %v (%#016x), want %v (%#016x)",
				name, g, math.Float64bits(g), math.Float64frombits(bits), bits)
		}
	}
}
