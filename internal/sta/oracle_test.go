package sta_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// The reference for the k-critical-path search is a brute-force
// enumeration sorted by kCriticalTo's contract: the first k paths in
// decreasing delay on the search grid, equal delays by gate sequence read
// from the endpoint back. The reference for StatMin is the engine's original
// greedy kernel, which rescans every pair's correlation after each merge;
// the production kernel must reproduce it bit for bit.

// refArrivals returns each gate's longest arrival under the engine's grid
// scalars for metric m, its own scalar included, in one topological pass.
func refArrivals(e *sta.Engine, m sta.Metric) []float64 {
	topo, err := e.N.TopoOrder()
	if err != nil {
		panic(err)
	}
	arr := make([]float64, e.N.NumGates())
	for _, id := range topo {
		g := e.N.Gate(id)
		best := 0.0
		if !g.Kind.IsSource() {
			best = math.Inf(-1)
			for _, f := range g.Fanin {
				best = max(best, arr[f])
			}
		}
		arr[id] = best + e.MetricDelay(id, m)
	}
	return arr
}

// refDFS walks, depth first from endpoint ep's driver back to the sources,
// every path whose delay under metric m can reach floor(), and calls leaf
// with each complete path's gates read from the endpoint back and its
// delay. It visits a gate's distinct drivers in increasing ID, so it meets
// the paths in increasing sequence read from the endpoint back, and cuts a
// branch whose longest completion falls below floor().
func refDFS(e *sta.Engine, ep netlist.GateID, m sta.Metric, arr []float64,
	floor func() float64, leaf func(rev []netlist.GateID, delay float64)) {
	var rev []netlist.GateID
	var walk func(g netlist.GateID, suf float64)
	walk = func(g netlist.GateID, suf float64) {
		rev = append(rev, g)
		if gate := e.N.Gate(g); gate.Kind.IsSource() {
			leaf(rev, suf)
		} else {
			fanin := slices.Clone(gate.Fanin)
			slices.Sort(fanin)
			for _, f := range slices.Compact(fanin) {
				if arr[f]+suf >= floor() {
					walk(f, suf+e.MetricDelay(f, m))
				}
			}
		}
		rev = rev[:len(rev)-1]
	}
	if drv := e.N.Gate(ep).Fanin[0]; arr[drv] >= floor() {
		walk(drv, e.MetricDelay(drv, m))
	}
}

// refKCritical is the contract's answer for one search. A first walk finds
// the k largest path delays, cutting every branch that can only tie the
// k-th found so far. A second collects the paths above the k-th delay and,
// of the paths at it, the first ones in sequence order until k are held;
// a multiplier search can tie so many paths at the k-th (tens of
// thousands) that collecting them all is out. The collection is then
// sorted by the contract.
func refKCritical(e *sta.Engine, ep netlist.GateID, k int, m sta.Metric, arr []float64) []netlist.Path {
	if e.N.Gate(ep).Kind != cell.DFF {
		return nil
	}
	var top []float64 // the k largest delays so far, largest first
	refDFS(e, ep, m, arr, func() float64 {
		if len(top) < k {
			return math.Inf(-1)
		}
		return math.Nextafter(top[k-1], math.Inf(1))
	}, func(_ []netlist.GateID, d float64) {
		i, _ := slices.BinarySearchFunc(top, d, func(a, b float64) int { return cmp.Compare(b, a) })
		top = slices.Insert(top, i, d)[:min(len(top)+1, k)]
	})
	kth, ties := math.Inf(-1), k // every path, when there are under k
	if len(top) == k {
		kth = top[k-1]
		ties -= slices.Index(top, kth)
	}
	type found struct {
		rev   []netlist.GateID
		delay float64
	}
	var all []found
	refDFS(e, ep, m, arr, func() float64 {
		if ties > 0 {
			return kth
		}
		return math.Nextafter(kth, math.Inf(1))
	}, func(rev []netlist.GateID, d float64) {
		if d == kth && ties > 0 {
			ties--
		} else if !(d > kth) {
			return
		}
		all = append(all, found{slices.Clone(rev), d})
	})
	slices.SortFunc(all, func(a, b found) int {
		if c := cmp.Compare(b.delay, a.delay); c != 0 {
			return c
		}
		return slices.Compare(a.rev, b.rev)
	})
	var out []netlist.Path
	for _, f := range all[:min(k, len(all))] {
		gates := slices.Clone(f.rev)
		slices.Reverse(gates)
		out = append(out, netlist.Path{Gates: gates, Endpoint: ep, NominalDelay: f.delay + cell.Setup})
	}
	return out
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

// refCriticalPaths merges the three metrics' reference paths as
// CriticalPaths documents: first occurrence kept, each path's delay
// re-expressed as its setup time plus its gates' mean delays summed source
// first, most critical first with ties by endpoint, then gate sequence.
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
	slices.SortFunc(out, func(a, b netlist.Path) int {
		if c := cmp.Compare(b.NominalDelay, a.NominalDelay); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Endpoint, b.Endpoint); c != 0 {
			return c
		}
		return slices.Compare(a.Gates, b.Gates)
	})
	return out
}

func pathBytes(p netlist.Path) []byte {
	b := make([]byte, 0, 4*len(p.Gates))
	for _, g := range p.Gates {
		b = append(b, byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
	}
	return b
}

// offNominal is the oracle's relative-sigma factor away from nominal's 1:
// 1.2 V's SigmaFactor, 0.927. A condition reaches an engine only through
// this factor; its DelayFactor divides the analysis period instead.
var offNominal = cell.OperatingCondition{VoltageV: 1.2}.SigmaFactor()

// units returns SSTA engines over the five generated pipeline units with
// the relative sigma times sigmaFactor.
func units(t testing.TB, sigmaFactor float64) []*sta.Engine {
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
		if out[i], err = sta.NewEngine(n, model, 1200, opts.SigmaRel*sigmaFactor, 1); err != nil {
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

// randomDAG returns a one-stage netlist over three inputs and a flip-flop
// source: nGates combinational gates of five kinds, each fed by earlier
// gates (sometimes one driver twice), and three flip-flop endpoints fed by
// the last gates. Sums of a few integer delays repeat, so paths tie
// exactly under every metric.
func randomDAG(rng *numeric.RNG, nGates int) *netlist.Netlist {
	n := netlist.New("dag", 1)
	pool := []netlist.GateID{
		n.Add(cell.INPUT, "a", 0), n.Add(cell.INPUT, "b", 0), n.Add(cell.INPUT, "c", 0),
	}
	pool = append(pool, n.Add(cell.DFF, "q", 0, pool[0]))
	kinds := []cell.Kind{cell.INV, cell.BUF, cell.NAND2, cell.NOR2, cell.MUX2}
	for i := 0; i < nGates; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		fanin := make([]netlist.GateID, kind.NumInputs())
		for j := range fanin {
			fanin[j] = pool[len(pool)-1-rng.Intn(min(len(pool), 5))]
		}
		if len(fanin) > 1 && rng.Intn(8) == 0 {
			fanin[1] = fanin[0]
		}
		pool = append(pool, n.Add(kind, fmt.Sprintf("g%d", i), 0, fanin...))
	}
	for i := 0; i < 3; i++ {
		n.Add(cell.DFF, fmt.Sprintf("ff%d", i), 0, pool[len(pool)-1-i])
	}
	return n
}

// TestKCriticalMatchesReference pins the search to its contract. On seeded
// small DAGs every path of every endpoint is enumerated, and each k from 1
// to one past the path count must return the contract's first k; the DAGs
// must tie at the k-th path, or the tie order would go untested. On the
// five units, at the nominal condition and at offNominal, every endpoint
// under each metric and k in {1, 3, 8, 32} is compared with the paths whose
// delay reaches the k-th, and so is the merged CriticalPaths set.
func TestKCriticalMatchesReference(t *testing.T) {
	metrics := [3]sta.Metric{sta.MetricNominal, sta.MetricWorst, sta.MetricBest}
	model, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := numeric.NewRNG(20190603)
	ties := 0
	for trial := 0; trial < 40; trial++ {
		e, err := sta.NewEngine(randomDAG(rng, 6+rng.Intn(11)), model, 1000, cell.SigmaRel, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			arr := refArrivals(e, m)
			for _, ep := range endpoints(e.N) {
				all := refKCritical(e, ep, math.MaxInt32, m, arr)
				for k := 1; k <= len(all)+1; k++ {
					want := all[:min(k, len(all))]
					if got := e.KCriticalTo(ep, k, m); !samePaths(got, want) {
						t.Fatalf("dag %d ep %d k=%d metric %d: paths differ from the reference\n got %v\nwant %v",
							trial, ep, k, m, got, want)
					}
					if k < len(all) && all[k-1].NominalDelay == all[k].NominalDelay {
						ties++
					}
				}
			}
		}
	}
	if ties < 100 {
		t.Fatalf("the DAGs tie at the k-th path %d times, want at least 100", ties)
	}

	for _, e := range append(units(t, 1), units(t, offNominal)...) {
		var arr [3][]float64
		for i, m := range metrics {
			arr[i] = refArrivals(e, m)
		}
		eps := endpoints(e.N)
		if len(eps) == 0 {
			t.Fatalf("%s at sigma %v: no endpoints", e.N.Name, e.SigmaRel)
		}
		for _, k := range []int{1, 3, 8, 32} {
			for _, ep := range eps {
				var want [3][]netlist.Path
				for i, m := range metrics {
					want[i] = refKCritical(e, ep, k, m, arr[i])
					if got := e.KCriticalTo(ep, k, m); !samePaths(got, want[i]) {
						t.Fatalf("%s at sigma %v ep %d k=%d metric %d: paths differ from the reference\n got %v\nwant %v",
							e.N.Name, e.SigmaRel, ep, k, m, got, want[i])
					}
				}
				if got, w := e.CriticalPaths(ep, k), refCriticalPaths(e, want); !samePaths(got, w) {
					t.Fatalf("%s at sigma %v ep %d k=%d: CriticalPaths differs from the reference", e.N.Name, e.SigmaRel, ep, k)
				}
			}
		}
	}
}

// TestMetricDelaysOnGrid checks the search's scalars: each gate's is its
// metric's delay rounded to GridBits significant bits, so within half a
// grid step of it and a whole multiple of that step.
func TestMetricDelaysOnGrid(t *testing.T) {
	metrics := [3]sta.Metric{sta.MetricNominal, sta.MetricWorst, sta.MetricBest}
	for _, e := range append(units(t, 1), units(t, offNominal)...) {
		for id := range e.N.NumGates() {
			d := e.GateDelay(netlist.GateID(id))
			for i, m := range metrics {
				x := d.Mean + [3]float64{0, 1, -1}[i]*2.3263478740408408*d.Std()
				got := e.MetricDelay(netlist.GateID(id), m)
				if x == 0 {
					if got != 0 {
						t.Fatalf("%s gate %d metric %d: %v, want 0", e.N.Name, id, m, got)
					}
					continue
				}
				_, exp := math.Frexp(x)
				step := math.Ldexp(1, exp-sta.GridBits)
				if q := got / step; math.Abs(got-x) > step/2 || q != math.Trunc(q) {
					t.Fatalf("%s gate %d metric %d: %v is not %v on a grid of %v", e.N.Name, id, m, got, x, step)
				}
			}
		}
	}
}

// TestSearchSizeIsAFunctionOfTheDesign sums the states pushed by the path
// searches one uncached framework build runs at a voltage: every endpoint
// of the five units under the three metrics at k = KPaths, once for
// calibration (scale 1, nominal sigma: calibration never reads the
// condition) and once for training and the DTA endpoint sets (the
// calibrated scales, the relative sigma times the voltage's SigmaFactor).
// With exact sums the count follows the design, not the rounding the
// factors set off: under float sums and with the delays scaled by the
// condition, 1.00, 1.07 and 0.95 V pushed 10-100x nominal's states. The
// count is deterministic, so any change to it is a reviewable event.
func TestSearchSizeIsAFunctionOfTheDesign(t *testing.T) {
	const wantNominal = 37920
	opts := errormodel.DefaultOptions()
	m, err := errormodel.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	scales := m.Scales()
	nets := []*netlist.Netlist{m.Ctrl.N, m.Adder.N, m.Shifter.N, m.Logic.N, m.Mult.N}
	pushed := func(sigmaFactor float64) int {
		total := 0
		for _, n := range nets {
			cal, err := sta.NewEngine(n, m.Model, m.PoFFPeriodPs, opts.SigmaRel, 1)
			if err != nil {
				t.Fatal(err)
			}
			run, err := sta.NewEngine(n, m.Model, m.WorkingPeriodPs, opts.SigmaRel*sigmaFactor, scales[n.Name])
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range endpoints(n) {
				for _, e := range []*sta.Engine{cal, run} {
					p, _, _ := e.SearchSize(ep, opts.KPaths)
					total += p
				}
			}
		}
		return total
	}
	nominal := pushed(1)
	if nominal != wantNominal {
		t.Errorf("a nominal build's searches push %d states, want %d", nominal, wantNominal)
	}
	for _, v := range []float64{1.00, 1.07, 0.95} {
		sf := cell.OperatingCondition{VoltageV: v}.SigmaFactor()
		if got := pushed(sf); 10*abs(got-nominal) > nominal {
			t.Errorf("a build at %v V (sigma factor %v) pushes %d states, more than 10%% from nominal's %d", v, sf, got, nominal)
		}
	}
}

func abs(x int) int { return max(x, -x) }

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
		"control":    0x4001625210d6b931, // 2.1730080905464537
		"logic":      0x4018f8c07878a96a, // 6.242921717037783
		"multiplier": 0x3fdc8d783aaac512, // 0.44613462189870845
		"shifter":    0x4010aca41d60a5e7, // 4.168594798110894
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
