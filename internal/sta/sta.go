// Package sta implements static and statistical static timing analysis over
// a netlist. It computes canonical-form gate delays under the process
// variation model, enumerates the k most critical paths per endpoint (under
// worst-case, nominal, and best-case per-gate delays, mirroring the two-pass
// criticality ordering of Algorithm 1), computes path slacks, and reduces
// sets of slack forms with the greedy pairwise statistical minimum of Sinha,
// Zhou, and Shenoy [21].
package sta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
	"tsperr/internal/variation"
)

// Engine couples a netlist with a variation model and a clock period.
type Engine struct {
	N     *netlist.Netlist
	Model *variation.Model
	// ClockPeriod is the speculative clock period in picoseconds.
	ClockPeriod float64
	// SigmaRel is the per-gate relative delay sigma.
	SigmaRel float64
	// DelayScale multiplies every nominal gate delay; the calibration step
	// uses it to place the design's maximum frequency at a chosen value.
	DelayScale float64

	delays []variation.Canon
	topo   []netlist.GateID
	// Per ranking metric, delay holds each gate's scalar delay on the search
	// grid (see gridBits) and bound its A* prefix bound (the longest arrival at any fanin, 0 for a source), so
	// a gate's longest source-to-gate arrival is bound+delay: pure functions
	// of the gate delays, filled once by prepare on the first path query (a
	// warm start that never searches paths skips the cost) and read-only
	// afterwards, so the DTA analyzer's workers share an engine.
	prep  sync.Once
	delay [numMetrics][]float64
	bound [numMetrics][]float64
}

// NewEngine prepares an engine whose gate delays are the library's nominal
// delays times delayScale, with relative sigma sigmaRel. The netlist must
// validate.
func NewEngine(n *netlist.Netlist, model *variation.Model, clockPeriod, sigmaRel, delayScale float64) (*Engine, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	if delayScale <= 0 {
		return nil, fmt.Errorf("sta: non-positive delay scale %v", delayScale)
	}
	e := &Engine{
		N: n, Model: model, ClockPeriod: clockPeriod,
		SigmaRel: sigmaRel, DelayScale: delayScale, topo: topo,
	}
	e.delays = make([]variation.Canon, n.NumGates())
	for i := range n.Gates() {
		g := &n.Gates()[i]
		e.delays[i] = model.Canonical(g.X, g.Y, g.Kind.Delay()*delayScale, sigmaRel)
	}
	return e, nil
}

// prepare fills the per-metric tables on first use.
func (e *Engine) prepare() {
	e.prep.Do(func() {
		sigma := make([]float64, len(e.delays))
		for i, d := range e.delays {
			sigma[i] = d.Std()
		}
		for m := range e.delay {
			e.tabulate(nominalMetric(m), sigma)
		}
	})
}

// GateDelay returns the canonical delay form of a gate.
func (e *Engine) GateDelay(id netlist.GateID) variation.Canon { return e.delays[id] }

// nominalMetric selects which per-gate scalar delay drives path ranking.
type nominalMetric int

const (
	metricNominal nominalMetric = iota
	metricWorst                 // 99th percentile gate delays
	metricBest                  // 1st percentile gate delays
	numMetrics
)

// gridBits is the number of significant bits a ranking scalar keeps. A
// scalar of magnitude in [2^e, 2^(e+1)) becomes a multiple of 2^(e-29), so
// while the longest arrival stays under 2^23 times the smallest nonzero
// scalar (a path is under 2^13 ps, a gate delay over 1 ps), every sum the
// search forms is exact: a partial path's priority equals the delay of the
// complete path it leads to, whichever order the terms were added in.
// Rounding to significant bits commutes with an exact power-of-two time
// scale, so a design with every delay doubled ranks its paths exactly as
// the original does.
const gridBits = 30

// onGrid rounds x to gridBits significant bits, halves away from zero.
func onGrid(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	frac, exp := math.Frexp(x)
	return math.Ldexp(math.Round(math.Ldexp(frac, gridBits)), exp-gridBits)
}

// tabulate fills metric m's tables from the gate sigmas: every gate's
// scalar delay on the search grid, then, in topological order, its prefix
// bound.
func (e *Engine) tabulate(m nominalMetric, sigma []float64) {
	n := len(e.delays)
	delay, bound := make([]float64, n), make([]float64, n)
	for id, d := range e.delays {
		switch m {
		case metricWorst:
			delay[id] = onGrid(d.Mean + 2.3263478740408408*sigma[id])
		case metricBest:
			delay[id] = onGrid(d.Mean - 2.3263478740408408*sigma[id])
		default:
			delay[id] = onGrid(d.Mean)
		}
	}
	gates := e.N.Gates()
	for _, id := range e.topo {
		g := &gates[id]
		if g.Kind.IsSource() {
			continue // a source has no prefix: its arrival is its own delay
		}
		best := math.Inf(-1)
		for _, f := range g.Fanin {
			if arr := bound[f] + delay[f]; arr > best {
				best = arr
			}
		}
		if math.IsInf(best, -1) {
			best = 0
		}
		bound[id] = best
	}
	e.delay[m], e.bound[m] = delay, bound
}

// chunkBits sizes the arena's chunks: 1<<chunkBits states or heap entries,
// 64 KiB each.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Arena is the scratch of the best-first k-critical-path search: search
// states, each linked to the suffix it extends, and a binary max-heap of
// state indices in kCriticalTo's pop order. Both live in fixed-size chunks
// that are appended as the search grows and never copied, and every search
// run on the arena reuses them. The zero value is ready to use; an arena
// serves one search at a time.
type Arena struct {
	states  []*[chunkLen]searchState
	heap    []*[chunkLen]heapEntry
	nstates int32
	nheap   int32
	pushed  int
}

// searchState is a partial path suffix [gate ... endpointDriver]: gate
// followed by the suffix of state next (-1 after the driver). A state is
// stored after the state it extends, so its index is the larger.
type searchState struct {
	gate     netlist.GateID
	next     int32
	sufDelay float64
}

type heapEntry struct {
	priority float64
	state    int32
}

func (a *Arena) state(i int32) *searchState { return &a.states[i>>chunkBits][i&chunkMask] }

// Pushed returns how many search states the arena's searches have pushed
// since it was made: the size of the searches, which benchmarks report.
func (a *Arena) Pushed() int { return a.pushed }

// above reports whether heap entry x pops before y: it has the higher
// priority or, on an exact tie, the smaller gate sequence read from the
// endpoint back. The heap never holds two states of which one extends the
// other (a state is popped before its extensions are pushed), so the two
// sequences differ at the first state below their common ancestor; the
// walk up finds it by always stepping from the larger index.
func (a *Arena) above(x, y heapEntry) bool {
	if x.priority != y.priority {
		return x.priority > y.priority
	}
	i, j := x.state, y.state
	ci, cj := i, j
	for i != j {
		if i > j {
			ci, i = i, a.state(i).next
		} else {
			cj, j = j, a.state(j).next
		}
	}
	return a.state(ci).gate < a.state(cj).gate
}

// add stores a state and pushes it with the given priority.
func (a *Arena) add(s searchState, priority float64) {
	idx := a.nstates
	if int(idx) == len(a.states)*chunkLen {
		a.states = append(a.states, new([chunkLen]searchState))
	}
	a.states[idx>>chunkBits][idx&chunkMask] = s
	a.nstates++
	j := a.nheap
	if int(j) == len(a.heap)*chunkLen {
		a.heap = append(a.heap, new([chunkLen]heapEntry))
	}
	a.nheap++
	// Sift up, moving the hole instead of swapping into it.
	e := heapEntry{priority: priority, state: idx}
	h := a.heap
	for j > 0 {
		i := (j - 1) / 2
		p := &h[i>>chunkBits][i&chunkMask]
		if !a.above(e, *p) {
			break
		}
		h[j>>chunkBits][j&chunkMask] = *p
		j = i
	}
	h[j>>chunkBits][j&chunkMask] = e
}

// pop removes and returns the state index of the entry that pops first.
func (a *Arena) pop() int32 {
	h := a.heap
	top := h[0][0].state
	n := a.nheap - 1
	a.nheap = n
	last := h[n>>chunkBits][n&chunkMask]
	// Sift the last entry down from the root, moving it as a hole.
	i := int32(0)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		c := &h[j>>chunkBits][j&chunkMask]
		if j2 := j + 1; j2 < n {
			if c2 := &h[j2>>chunkBits][j2&chunkMask]; a.above(*c2, *c) {
				j, c = j2, c2
			}
		}
		if !a.above(*c, last) {
			break
		}
		h[i>>chunkBits][i&chunkMask] = *c
		i = j
	}
	h[i>>chunkBits][i&chunkMask] = last
	return top
}

// gates materializes the path suffix of state idx, source first.
func (a *Arena) gates(idx int32) []netlist.GateID {
	n := 0
	for i := idx; i >= 0; i = a.state(i).next {
		n++
	}
	out := make([]netlist.GateID, n)
	for i := range out {
		s := a.state(idx)
		out[i] = s.gate
		idx = s.next
	}
	return out
}

// kCriticalTo returns the first k complete paths ending at endpoint ep in
// this total order: decreasing delay under metric m (the sum of the gates'
// scalars on the search grid, exact whatever the order of the terms), then,
// among equal delays, increasing gate sequence read from the endpoint back
// (the driver first), compared gate ID by gate ID. A path is a distinct
// gate sequence: a gate that lists one driver twice is one path through it.
// Each path's NominalDelay is its metric delay plus the setup time.
//
// The search is best-first (A*) with the longest arrival at a gate's fanin
// as the prefix bound, and pops states in the same order: by priority
// (prefix bound plus suffix delay), then by the sequence. A partial path's
// sequence is a prefix of its completions', and exact sums give it the
// delay of its best completion, so complete paths pop in the order above
// and the pop order does not depend on the heap's layout. The arena is
// reset and reused as scratch.
func (e *Engine) kCriticalTo(ep netlist.GateID, k int, m nominalMetric, a *Arena) []netlist.Path {
	gates := e.N.Gates()
	g := &gates[ep]
	if g.Kind != cell.DFF {
		return nil
	}
	e.prepare()
	delay, bound := e.delay[m], e.bound[m]
	driver := g.Fanin[0]
	a.nstates, a.nheap = 0, 0 // keep the chunks
	a.add(searchState{gate: driver, next: -1, sufDelay: delay[driver]}, bound[driver]+delay[driver])
	var out []netlist.Path
	for a.nheap > 0 && len(out) < k {
		idx := a.pop()
		s := *a.state(idx)
		sg := &gates[s.gate]
		if sg.Kind.IsSource() {
			out = append(out, netlist.Path{
				Gates:        a.gates(idx),
				Endpoint:     ep,
				NominalDelay: s.sufDelay + cell.Setup,
			})
			continue
		}
		for i, f := range sg.Fanin {
			if slices.Contains(sg.Fanin[:i], f) {
				continue
			}
			suf := s.sufDelay + delay[f]
			a.add(searchState{gate: f, next: idx, sufDelay: suf}, bound[f]+suf)
		}
	}
	a.pushed += int(a.nstates)
	return out
}

// CriticalPaths returns up to k paths per ranking metric for endpoint ep,
// deduplicated and sorted by nominal delay (most critical first). Running
// the enumeration under worst-case and best-case gate delays in addition to
// nominal mirrors the paper's double execution of the while-loop in
// Algorithm 1 under SSTA: it guarantees the set contains every path that
// could become the true critical path over process variation.
func (e *Engine) CriticalPaths(ep netlist.GateID, k int) []netlist.Path {
	return e.CriticalPathsIn(ep, k, new(Arena))
}

// CriticalPathsIn is CriticalPaths searching in a caller-owned arena, which
// a loop over endpoints grows once instead of once per endpoint.
func (e *Engine) CriticalPathsIn(ep netlist.GateID, k int, a *Arena) []netlist.Path {
	var out []netlist.Path
	for _, m := range [...]nominalMetric{metricNominal, metricWorst, metricBest} {
		// One search's paths are distinct, so only the earlier metrics'
		// can repeat one.
		earlier := out
		for _, p := range e.kCriticalTo(ep, k, m, a) {
			if slices.ContainsFunc(earlier, func(q netlist.Path) bool { return slices.Equal(q.Gates, p.Gates) }) {
				continue
			}
			// Re-express the cached delay under the nominal metric so
			// ordering is consistent across metrics.
			p.NominalDelay = e.nominalPathDelay(p)
			out = append(out, p)
		}
	}
	netlist.SortPathsByDelay(out)
	return out
}

func (e *Engine) nominalPathDelay(p netlist.Path) float64 {
	d := cell.Setup
	for _, g := range p.Gates {
		d += e.delays[g].Mean
	}
	return d
}

// PathDelay returns the canonical delay form of a path: the exact sum of its
// gate delay forms plus the endpoint setup time (cell.Setup).
func (e *Engine) PathDelay(p netlist.Path) variation.Canon {
	sum := e.Model.Const(cell.Setup)
	for _, g := range p.Gates {
		sum.AddInPlace(e.delays[g])
	}
	return sum
}

// PathSlack returns the canonical slack form SL(p) = T_clk - delay(p): the
// maximum reduction in clock period that would not violate the endpoint's
// setup constraint.
func (e *Engine) PathSlack(p netlist.Path) variation.Canon {
	d := e.PathDelay(p)
	return d.Neg().AddConst(e.ClockPeriod)
}

// statMinGreedyLimit bounds the O(n^3) greedy pairing; beyond it StatMin
// falls back to a sorted fold, which loses little accuracy when reducing
// thousands of forms (the greedy order matters most among the few
// near-critical ones, which the sorted fold visits first).
const statMinGreedyLimit = 96

// ErrEmptySet reports a statistical reduction over zero canonical forms,
// which has no defined result.
var ErrEmptySet = errors.New("sta: statistical min of empty set")

// StatMin reduces a set of canonical slack forms to the canonical form of
// their minimum using a greedy sequence of pairwise Clark minimums in the
// order that minimizes approximation error [21]: at each step the pair with
// the highest correlation is merged first, because Clark's approximation is
// exact in the limit of perfectly correlated operands. Very large sets are
// pre-reduced with a sorted fold. An empty set returns ErrEmptySet — the
// condition is reachable from sparse inputs (e.g. a trace that never
// activates a unit), so it must not panic.
func StatMin(forms []variation.Canon) (variation.Canon, error) {
	if len(forms) == 0 {
		return variation.Canon{}, ErrEmptySet
	}
	work := make([]variation.Canon, len(forms))
	copy(work, forms)
	if len(work) > statMinGreedyLimit {
		// Fold smallest means first so the result converges quickly, then
		// finish greedily on the survivors.
		sort.Slice(work, func(i, j int) bool { return work[i].Mean < work[j].Mean })
		acc := work[statMinGreedyLimit-1]
		for _, f := range work[statMinGreedyLimit:] {
			acc = acc.Min(f)
		}
		work = work[:statMinGreedyLimit]
		work[statMinGreedyLimit-1] = acc
	}
	n := len(work)
	if n == 1 {
		return work[0], nil
	}
	// sd caches each form's sigma and corr the pairwise correlations, a
	// symmetric matrix with row i at corr[i*stride:], holding exactly the
	// values Canon.Corr returns (Cov is symmetric bit for bit). A merge
	// changes one form, so only its row and column are recomputed.
	stride := n
	sd := make([]float64, n)
	corr := make([]float64, n*n)
	for i := range work {
		sd[i] = work[i].Std()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := corrOf(work[i], work[j], sd[i], sd[j])
			corr[i*stride+j], corr[j*stride+i] = r, r
		}
	}
	for ; n > 1; n-- {
		// The first maximal pair in (i, j) order, as a full rescan of
		// Canon.Corr would pick it.
		bi, bj := 0, 1
		best := math.Inf(-1)
		for i := 0; i < n; i++ {
			row := corr[i*stride : i*stride+n]
			for j := i + 1; j < n; j++ {
				if r := row[j]; r > best {
					best, bi, bj = r, i, j
				}
			}
		}
		merged := work[bi].Min(work[bj])
		// Move the last form into slot bj, then the merged form into bi.
		last := n - 1
		work[bj], sd[bj] = work[last], sd[last]
		for x := 0; x < last; x++ {
			corr[bj*stride+x] = corr[last*stride+x]
			corr[x*stride+bj] = corr[x*stride+last]
		}
		work[bi], sd[bi] = merged, merged.Std()
		for x := 0; x < last; x++ {
			if x != bi {
				r := corrOf(work[bi], work[x], sd[bi], sd[x])
				corr[bi*stride+x], corr[x*stride+bi] = r, r
			}
		}
	}
	return work[0], nil
}

// corrOf is Canon.Corr given both forms' sigmas.
func corrOf(a, b variation.Canon, sa, sb float64) float64 {
	if sa == 0 || sb == 0 {
		return 0
	}
	return numeric.Clamp(a.Cov(b)/(sa*sb), -1, 1)
}

// WorstSlackNominal returns the most negative nominal endpoint slack in a
// stage (the classic STA number), used to calibrate operating points. It
// reads the nominal metric's tables, whose delays are on the search grid.
func (e *Engine) WorstSlackNominal(stage int) float64 {
	e.prepare()
	bound, delay := e.bound[metricNominal], e.delay[metricNominal]
	worst := math.Inf(1)
	for _, ep := range e.N.Endpoints(stage) {
		driver := e.N.Gate(ep).Fanin[0]
		slack := e.ClockPeriod - cell.Setup - (bound[driver] + delay[driver])
		if slack < worst {
			worst = slack
		}
	}
	return worst
}

// MaxDelayNominal returns the longest nominal path delay (including setup)
// across all stages: the minimum clock period of the design under STA, from
// the nominal metric's tables, whose delays are on the search grid.
func (e *Engine) MaxDelayNominal() float64 {
	e.prepare()
	bound, delay := e.bound[metricNominal], e.delay[metricNominal]
	worst := 0.0
	for s := 0; s < e.N.Stages; s++ {
		for _, ep := range e.N.Endpoints(s) {
			driver := e.N.Gate(ep).Fanin[0]
			if d := bound[driver] + delay[driver] + cell.Setup; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// MaxDelayPercentile returns the p-th percentile of the statistical maximum
// path delay of the design, approximated by the statistical maximum over the
// k most critical paths of every endpoint. SSTA sign-off (the paper's
// 718 MHz with guardband) corresponds to a high percentile of this value.
// The endpoints are searched in order in one arena; with exact sums the
// multiplier's take about a millisecond, so a worker pool no longer pays.
func (e *Engine) MaxDelayPercentile(p float64, k int) float64 {
	// The statistical maximum is the dual of StatMin over the negated
	// path delay forms.
	var neg []variation.Canon
	var a Arena
	for s := 0; s < e.N.Stages; s++ {
		for _, ep := range e.N.Endpoints(s) {
			for _, path := range e.CriticalPathsIn(ep, k, &a) {
				neg = append(neg, e.PathDelay(path).Neg())
			}
		}
	}
	mn, err := StatMin(neg)
	if err != nil {
		return 0 // no endpoint has a path
	}
	return mn.Neg().Percentile(p)
}

// EndpointSlackForms returns the slack canonical forms of the k most
// critical paths for each endpoint of a stage, keyed by endpoint.
func (e *Engine) EndpointSlackForms(stage int, k int) map[netlist.GateID][]variation.Canon {
	out := map[netlist.GateID][]variation.Canon{}
	eps := e.N.Endpoints(stage)
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	var a Arena
	for _, ep := range eps {
		for _, p := range e.CriticalPathsIn(ep, k, &a) {
			out[ep] = append(out[ep], e.PathSlack(p))
		}
	}
	return out
}
