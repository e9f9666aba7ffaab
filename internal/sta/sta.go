// Package sta implements static and statistical static timing analysis over
// a netlist. It computes canonical-form gate delays under the process
// variation model, enumerates the k most critical paths per endpoint (under
// worst-case, nominal, and best-case per-gate delays, mirroring the two-pass
// criticality ordering of Algorithm 1), computes path slacks, and reduces
// sets of slack forms with the greedy pairwise statistical minimum of Sinha,
// Zhou, and Shenoy [21].
package sta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
	"tsperr/internal/pool"
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
	// Cond is the operating condition the gate delays are evaluated at.
	// Its DelayFactor/SigmaFactor multiply on top of DelayScale/SigmaRel;
	// at the nominal condition both are exactly 1.0 and the engine is
	// bit-identical to a condition-free one.
	Cond cell.OperatingCondition

	delays []variation.Canon
	topo   []netlist.GateID
	// sigma holds each gate delay's standard deviation and arrival the
	// longest source-to-gate arrival per ranking metric: pure functions of
	// the gate delays, filled once by prepare on the first path query (a
	// warm start that never searches paths skips the cost) and read-only
	// afterwards, so the DTA analyzer's workers share an engine.
	prep    sync.Once
	sigma   []float64
	arrival [numMetrics][]float64
}

// NewEngine prepares an engine at the nominal operating condition. The
// netlist must validate.
func NewEngine(n *netlist.Netlist, model *variation.Model, clockPeriod, sigmaRel, delayScale float64) (*Engine, error) {
	return NewEngineAt(n, model, clockPeriod, sigmaRel, delayScale, cell.OperatingCondition{})
}

// NewEngineAt prepares an engine with gate delays evaluated at the given
// operating condition: every nominal delay is inflated by the condition's
// DelayFactor and the relative sigma by its SigmaFactor, so the SSTA
// distributions (and everything downstream: DTS, calibrated slacks, error
// rates) shift with voltage and temperature. DelayScale stays a pure design
// property — calibration runs at the nominal condition and the V/T factors
// multiply on top.
func NewEngineAt(n *netlist.Netlist, model *variation.Model, clockPeriod, sigmaRel, delayScale float64, cond cell.OperatingCondition) (*Engine, error) {
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
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		N: n, Model: model, ClockPeriod: clockPeriod,
		SigmaRel: sigmaRel, DelayScale: delayScale, Cond: cond, topo: topo,
	}
	df, sf := cond.DelayFactor(), cond.SigmaFactor()
	e.delays = make([]variation.Canon, n.NumGates())
	for i := range n.Gates() {
		g := &n.Gates()[i]
		e.delays[i] = model.CanonicalScaled(g.X, g.Y, g.Kind.Delay()*delayScale, sigmaRel, df, sf)
	}
	return e, nil
}

// prepare fills the sigma and arrival tables on first use.
func (e *Engine) prepare() {
	e.prep.Do(func() {
		e.sigma = make([]float64, len(e.delays))
		for i, d := range e.delays {
			e.sigma[i] = d.Std()
		}
		for m := range e.arrival {
			e.arrival[m] = e.maxArrival(nominalMetric(m))
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

func (e *Engine) scalarDelay(id netlist.GateID, m nominalMetric) float64 {
	mean := e.delays[id].Mean
	switch m {
	case metricWorst:
		return mean + 2.3263478740408408*e.sigma[id]
	case metricBest:
		return mean - 2.3263478740408408*e.sigma[id]
	default:
		return mean
	}
}

// maxArrival computes, for the chosen metric, the longest source-to-gate
// (inclusive) combinational arrival for every gate. It reads sigma, so only
// prepare calls it.
func (e *Engine) maxArrival(m nominalMetric) []float64 {
	arr := make([]float64, e.N.NumGates())
	gates := e.N.Gates()
	for _, id := range e.topo {
		g := &gates[id]
		if g.Kind.IsSource() {
			arr[id] = e.scalarDelay(id, m) // clock-to-Q or 0
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
		arr[id] = best + e.scalarDelay(id, m)
	}
	return arr
}

// pathSearch is the scratch state of the best-first k-critical-path
// search: an arena of partial paths, each linked to the suffix it extends,
// and a binary max-heap of arena indices. The heap sifts exactly as
// container/heap does, so paths of equal priority (common under the
// nominal metric) pop in the same order and the same k paths come out.
type pathSearch struct {
	states []searchState
	heap   []heapEntry
}

// searchState is a partial path suffix [gate ... endpointDriver]: gate
// followed by the suffix of state next (-1 after the driver), depth gates
// in all.
type searchState struct {
	gate     netlist.GateID
	next     int32
	depth    int32
	sufDelay float64
}

type heapEntry struct {
	priority float64
	state    int32
}

// add appends a state to the arena and pushes it with the given priority.
func (ps *pathSearch) add(s searchState, priority float64) {
	ps.states = append(ps.states, s)
	h := append(ps.heap, heapEntry{priority: priority, state: int32(len(ps.states) - 1)})
	// container/heap's up.
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].priority > h[i].priority) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	ps.heap = h
}

// pop removes and returns the arena index of the highest-priority state.
func (ps *pathSearch) pop() int32 {
	h := ps.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// container/heap's down over h[:n].
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].priority > h[j].priority {
			j = j2
		}
		if !(h[j].priority > h[i].priority) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	ps.heap = h[:n]
	return h[n].state
}

// gates materializes the path suffix of state idx, source first.
func (ps *pathSearch) gates(idx int32) []netlist.GateID {
	out := make([]netlist.GateID, ps.states[idx].depth)
	for i := range out {
		out[i] = ps.states[idx].gate
		idx = ps.states[idx].next
	}
	return out
}

// kCriticalTo enumerates up to k complete paths ending at endpoint ep in
// exactly decreasing order of total delay under the chosen metric, using
// best-first (A*) search with the max-arrival upper bound as heuristic.
// ps is reset and reused as scratch.
func (e *Engine) kCriticalTo(ep netlist.GateID, k int, m nominalMetric, ps *pathSearch) []netlist.Path {
	g := e.N.Gate(ep)
	if g.Kind != cell.DFF {
		return nil
	}
	e.prepare()
	arr := e.arrival[m]
	driver := g.Fanin[0]
	ps.states, ps.heap = ps.states[:0], ps.heap[:0]
	start := searchState{gate: driver, next: -1, depth: 1, sufDelay: e.scalarDelay(driver, m)}
	ps.add(start, e.prefixBound(driver, arr)+start.sufDelay)
	var out []netlist.Path
	for len(ps.heap) > 0 && len(out) < k {
		idx := ps.pop()
		s := ps.states[idx]
		sg := e.N.Gate(s.gate)
		if sg.Kind.IsSource() {
			out = append(out, netlist.Path{
				Gates:        ps.gates(idx),
				Endpoint:     ep,
				NominalDelay: s.sufDelay + cell.Setup,
			})
			continue
		}
		for _, f := range sg.Fanin {
			ns := searchState{gate: f, next: idx, depth: s.depth + 1, sufDelay: s.sufDelay + e.scalarDelay(f, m)}
			ps.add(ns, e.prefixBound(f, arr)+ns.sufDelay)
		}
	}
	return out
}

// prefixBound returns the best possible delay of any source-to-g-exclusive
// prefix, used as the A* heuristic. Sources have no prefix.
func (e *Engine) prefixBound(g netlist.GateID, arr []float64) float64 {
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

// CriticalPaths returns up to k paths per ranking metric for endpoint ep,
// deduplicated and sorted by nominal delay (most critical first). Running
// the enumeration under worst-case and best-case gate delays in addition to
// nominal mirrors the paper's double execution of the while-loop in
// Algorithm 1 under SSTA: it guarantees the set contains every path that
// could become the true critical path over process variation.
func (e *Engine) CriticalPaths(ep netlist.GateID, k int) []netlist.Path {
	var ps pathSearch
	return e.criticalPaths(ep, k, &ps)
}

// criticalPaths is CriticalPaths with caller-owned search scratch, which a
// loop over endpoints grows once instead of once per endpoint.
func (e *Engine) criticalPaths(ep netlist.GateID, k int, ps *pathSearch) []netlist.Path {
	seen := map[string]bool{}
	var out []netlist.Path
	for _, m := range [...]nominalMetric{metricNominal, metricWorst, metricBest} {
		for _, p := range e.kCriticalTo(ep, k, m, ps) {
			key := pathKey(p)
			if seen[key] {
				continue
			}
			seen[key] = true
			// Re-express the cached delay under the nominal metric so
			// ordering is consistent across metrics.
			p.NominalDelay = e.nominalPathDelay(p)
			out = append(out, p)
		}
	}
	netlist.SortPathsByDelay(out)
	return out
}

func pathKey(p netlist.Path) string {
	b := make([]byte, 0, 4*len(p.Gates)+4)
	for _, g := range p.Gates {
		b = append(b, byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
	}
	return string(b)
}

func (e *Engine) nominalPathDelay(p netlist.Path) float64 {
	d := cell.Setup
	for _, g := range p.Gates {
		d += e.delays[g].Mean
	}
	return d
}

// PathDelay returns the canonical delay form of a path: the exact sum of its
// gate delay forms plus the endpoint setup time.
func (e *Engine) PathDelay(p netlist.Path) variation.Canon {
	sum := e.Model.Const(cell.Setup)
	for _, g := range p.Gates {
		sum = sum.Add(e.delays[g])
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
// stage (the classic STA number), used to calibrate operating points.
func (e *Engine) WorstSlackNominal(stage int) float64 {
	e.prepare()
	arr := e.arrival[metricNominal]
	worst := math.Inf(1)
	for _, ep := range e.N.Endpoints(stage) {
		driver := e.N.Gate(ep).Fanin[0]
		slack := e.ClockPeriod - cell.Setup - arr[driver]
		if slack < worst {
			worst = slack
		}
	}
	return worst
}

// MaxDelayNominal returns the longest nominal path delay (including setup)
// across all stages: the minimum clock period of the design under STA.
func (e *Engine) MaxDelayNominal() float64 {
	e.prepare()
	arr := e.arrival[metricNominal]
	worst := 0.0
	for s := 0; s < e.N.Stages; s++ {
		for _, ep := range e.N.Endpoints(s) {
			driver := e.N.Gate(ep).Fanin[0]
			if d := arr[driver] + cell.Setup; d > worst {
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
// The endpoints' path searches run on the shared worker pool with
// GOMAXPROCS workers, each reusing one search arena, and their forms are
// concatenated in endpoint order, so the result is bit-identical to a serial
// search for any worker count.
func (e *Engine) MaxDelayPercentile(p float64, k int) float64 {
	var eps []netlist.GateID
	for s := 0; s < e.N.Stages; s++ {
		eps = append(eps, e.N.Endpoints(s)...)
	}
	// One search arena per worker: a task takes one and puts it back.
	workers := runtime.GOMAXPROCS(0)
	arenas := make(chan *pathSearch, workers)
	for i := 0; i < workers; i++ {
		arenas <- new(pathSearch)
	}
	perEP := make([][]variation.Canon, len(eps))
	errs := make([]error, len(eps))
	pool.Run(context.Background(), len(eps), workers, false, errs, func(_ context.Context, i int) error {
		ps := <-arenas
		defer func() { arenas <- ps }()
		for _, path := range e.criticalPaths(eps[i], k, ps) {
			perEP[i] = append(perEP[i], e.PathDelay(path))
		}
		return nil
	})
	if err := pool.FirstError(errs); err != nil {
		panic(err) // a search bug, surfaced as the serial loop would have
	}
	var forms []variation.Canon
	for _, f := range perEP {
		forms = append(forms, f...)
	}
	if len(forms) == 0 {
		return 0
	}
	// Statistical maximum via the dual of StatMin; forms is non-empty here,
	// so the reduction cannot fail.
	neg := make([]variation.Canon, len(forms))
	for i, f := range forms {
		neg[i] = f.Neg()
	}
	mn, err := StatMin(neg)
	if err != nil {
		return 0
	}
	return mn.Neg().Percentile(p)
}

// EndpointSlackForms returns the slack canonical forms of the k most
// critical paths for each endpoint of a stage, keyed by endpoint.
func (e *Engine) EndpointSlackForms(stage int, k int) map[netlist.GateID][]variation.Canon {
	out := map[netlist.GateID][]variation.Canon{}
	eps := e.N.Endpoints(stage)
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	var ps pathSearch
	for _, ep := range eps {
		for _, p := range e.criticalPaths(ep, k, &ps) {
			out[ep] = append(out[ep], e.PathSlack(p))
		}
	}
	return out
}
