// Package dta implements the paper's dynamic timing analysis: Algorithm 1
// computes the dynamic timing slack (DTS) of a pipeline stage at a clock
// cycle as the slack of the most critical *activated* path, and Algorithm 2
// computes the DTS of an instruction as the minimum over the stages it
// traverses. Under SSTA, slacks are canonical Gaussian forms: the
// most-critical-path scan runs twice (1st- and 99th-percentile orderings)
// and the result is the statistical minimum over the collected activated
// paths, exactly as Section 3 describes.
//
// The analyzer is safe for concurrent use and memoizes three layers of
// repeated work:
//
//   - per-endpoint critical-path enumeration, computed once per endpoint and
//     shared by every cycle, together with the two criticality orderings the
//     Algorithm 1 scans use (the orderings are period-independent, see below);
//   - full StageDTS reductions, keyed by an interned endpoint-set identity
//     plus a packed activation bitset of its candidate paths — two cycles
//     that activate the same subset of candidate paths have, by
//     construction, the same DTS form, so the expensive statistical-minimum
//     reduction runs once per distinct signature, and the memo probe itself
//     is allocation-free for sets of up to stageKeyPaths candidate paths;
//   - the clock period enters only at the very end: path slack is
//     SL(p) = T - delay(p), so the memo stores the statistical minimum of the
//     *negated delays* (period-free) and every query adds its own period T.
//     Criticality orderings, Clark pairing (driven by correlations, which
//     live in the sensitivities) and the reduction structure are invariant
//     under the common shift, so queries at different periods share every
//     enumeration and reduction.
package dta

import (
	"encoding/binary"
	"sort"
	"sync"

	"tsperr/internal/activity"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

// pathSlack couples an enumerated path with the canonical form of its
// *negated delay*: the slack at clock period T is neg + T, so neg is the
// period-independent part. p01/p99 are percentiles of neg; shifting by T
// moves both by the same constant, so ordering paths by these values is
// identical to ordering by the corresponding slack percentiles at any T.
type pathSlack struct {
	path netlist.Path
	neg  variation.Canon
	p01  float64 // 1st percentile of neg (worst case)
	p99  float64 // 99th percentile of neg (best case)
}

// epPaths is the lazily computed candidate-path set of one endpoint. The
// once guard lets concurrent callers share a single enumeration without
// holding the analyzer lock during the (expensive) path search. ordWorst and
// ordBest are the two criticality orderings of Algorithm 1, precomputed here
// because they are period-independent.
type epPaths struct {
	once     sync.Once
	ps       []pathSlack
	ordWorst []int32 // path indices by p01 ascending (most critical worst-case first)
	ordBest  []int32 // path indices by p99 ascending (most critical best-case first)
}

// stageKeyPaths is the largest candidate-path count whose stage-memo key
// fits the stack buffer StageDTS builds it in (the shipped units' largest
// set has 379); a larger set builds its key on the heap, with the same
// layout.
const stageKeyPaths = 512

// stageEntry is one memoized StageDTS outcome: the period-free reduction
// (statistical minimum of the activated negated delays), and whether any
// path was activated. Entries are never modified once stored.
type stageEntry struct {
	neg variation.Canon
	ok  bool
}

// stageMemoLimit bounds the StageDTS memo; a characterization run over a
// large program can see many distinct activation signatures, and dropping
// the memo wholesale on overflow keeps memory bounded without affecting
// results (entries are pure functions of their key).
const stageMemoLimit = 1 << 16

// setPtrLimit bounds the pointer-identity alias table of the endpoint-set
// interner; callers that pass freshly allocated slices every probe fall back
// to the content lookup instead of growing the table without bound.
const setPtrLimit = 1 << 12

// setRef is the pointer identity of an endpoint slice. Holding the element
// pointer in the map keeps the backing array reachable, so an address is
// never recycled while it is a key.
type setRef struct {
	ptr *netlist.GateID
	n   int
}

// epSet is an interned endpoint set. Its endpoints' candidate paths are
// resolved once, on first use, so StageDTS walks them without taking the
// analyzer lock or probing the endpoint cache per endpoint per call.
type epSet struct {
	id    int32
	eps   []netlist.GateID
	once  sync.Once
	paths []*epPaths // per endpoint, in eps order; read-only after once
	bits  int        // candidate paths over all endpoints
}

// resolve returns the set's per-endpoint candidate paths, enumerating them
// on first use in one search arena.
func (s *epSet) resolve(a *Analyzer) []*epPaths {
	s.once.Do(func() {
		var ar sta.Arena
		s.paths = make([]*epPaths, len(s.eps))
		for i, ep := range s.eps {
			s.paths[i] = a.endpointPaths(ep, &ar)
			s.bits += len(s.paths[i].ps)
		}
	})
	return s.paths
}

// Analyzer caches per-endpoint critical-path sets for a netlist and engine,
// plus memoized stage DTS reductions. All methods are safe for concurrent
// use by multiple goroutines. Endpoint slices passed to StageDTS are
// retained for interning and must not be mutated afterwards.
type Analyzer struct {
	Engine *sta.Engine
	// K is the number of most-critical paths enumerated per endpoint per
	// ranking metric.
	K int

	mu sync.Mutex
	// cache memoizes per-endpoint path enumerations; guarded by mu.
	cache map[netlist.GateID]*epPaths
	// setsByPtr and setsByContent intern endpoint sets: the pointer table is
	// the fast path, the content table the ground truth; guarded by mu.
	setsByPtr     map[setRef]*epSet
	setsByContent map[string]*epSet
	// stage memoizes stage-level DTS reductions by activation signature (see
	// StageDTS for the key layout); guarded by mu.
	stage map[string]stageEntry
}

// New builds an analyzer. k must be positive.
func New(e *sta.Engine, k int) *Analyzer {
	if k <= 0 {
		k = 8
	}
	return &Analyzer{
		Engine: e, K: k,
		cache:         map[netlist.GateID]*epPaths{},
		setsByPtr:     map[setRef]*epSet{},
		setsByContent: map[string]*epSet{},
		stage:         map[string]stageEntry{},
	}
}

// endpointPaths returns the cached candidate paths of an endpoint,
// enumerating them on first use in the caller's arena. Concurrent callers
// for the same endpoint block on the entry's once instead of duplicating
// the search.
func (a *Analyzer) endpointPaths(ep netlist.GateID, ar *sta.Arena) *epPaths {
	a.mu.Lock()
	e, ok := a.cache[ep]
	if !ok {
		e = &epPaths{}
		a.cache[ep] = e
	}
	a.mu.Unlock()
	e.once.Do(func() {
		for _, p := range a.Engine.CriticalPathsIn(ep, a.K, ar) {
			n := a.Engine.PathDelay(p).Neg()
			e.ps = append(e.ps, pathSlack{
				path: p,
				neg:  n,
				p01:  n.Percentile(0.01),
				p99:  n.Percentile(0.99),
			})
		}
		e.ordWorst = make([]int32, len(e.ps))
		e.ordBest = make([]int32, len(e.ps))
		for i := range e.ps {
			e.ordWorst[i] = int32(i)
			e.ordBest[i] = int32(i)
		}
		sort.SliceStable(e.ordWorst, func(x, y int) bool {
			return e.ps[e.ordWorst[x]].p01 < e.ps[e.ordWorst[y]].p01
		})
		sort.SliceStable(e.ordBest, func(x, y int) bool {
			return e.ps[e.ordBest[x]].p99 < e.ps[e.ordBest[y]].p99
		})
	})
	return e
}

// internSet maps a non-empty endpoint slice to its interned set, by pointer
// identity when possible and by content otherwise. Two slices with equal
// contents get the same set, so memo entries survive callers that rebuild
// their endpoint sets.
func (a *Analyzer) internSet(eps []netlist.GateID) *epSet {
	ref := setRef{&eps[0], len(eps)}
	a.mu.Lock()
	if s, ok := a.setsByPtr[ref]; ok {
		a.mu.Unlock()
		return s
	}
	a.mu.Unlock()

	b := make([]byte, 4*len(eps))
	for i, ep := range eps {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(ep))
	}
	content := string(b)
	a.mu.Lock()
	s, ok := a.setsByContent[content]
	if !ok {
		s = &epSet{id: int32(len(a.setsByContent) + 1), eps: eps}
		a.setsByContent[content] = s
	}
	if len(a.setsByPtr) < setPtrLimit {
		a.setsByPtr[ref] = s
	}
	a.mu.Unlock()
	return s
}

// reduce runs the two Algorithm 1 criticality scans per endpoint over the
// activation bits exposed by actAt (positions advance per endpoint in path
// order, matching the key packing) and returns the statistical minimum of
// the collected activated negated-delay forms.
func (a *Analyzer) reduce(paths []*epPaths, actAt func(int) bool) stageEntry {
	var ap []variation.Canon
	pos := 0
	for _, e := range paths {
		n := len(e.ps)
		if n == 0 {
			continue
		}
		base := pos
		pos += n
		// Two scans: worst-case (1st percentile) and best-case (99th
		// percentile) criticality orderings; each contributes the first
		// activated path, ensuring AP contains every path that could be the
		// true most-critical one over process variation.
		i0, i1 := -1, -1
		for _, i := range e.ordWorst {
			if actAt(base + int(i)) {
				i0 = int(i)
				break
			}
		}
		for _, i := range e.ordBest {
			if actAt(base + int(i)) {
				i1 = int(i)
				break
			}
		}
		if i0 < 0 {
			continue
		}
		lo, hi := i0, i1
		if hi == lo {
			hi = -1
		}
		if hi >= 0 && hi < lo {
			lo, hi = hi, lo
		}
		ap = append(ap, e.ps[lo].neg)
		if hi >= 0 {
			ap = append(ap, e.ps[hi].neg)
		}
	}
	var ent stageEntry
	if len(ap) > 0 {
		if mn, err := sta.StatMin(ap); err == nil {
			ent.neg, ent.ok = mn, true
		}
	}
	return ent
}

// StageDTS is Algorithm 1 restricted to an endpoint set: it returns the
// canonical DTS form of the given endpoints at cycle t under clock period
// period (ps), and false when no path is activated (the stage imposes no
// timing constraint that cycle). Results are memoized on the activation
// signature of the candidate paths, so repeated cycles with identical
// activation patterns cost one map probe — allocation-free for sets of up
// to stageKeyPaths paths. The returned form shares its sensitivity slice
// with the memo entry; no Canon operation writes into its operands.
func (a *Analyzer) StageDTS(eps []netlist.GateID, t int, tr *activity.Trace, period float64) (variation.Canon, bool) {
	if len(eps) == 0 {
		return variation.Canon{}, false
	}
	set := a.internSet(eps)
	paths := set.resolve(a)
	// The key is the interned set id (which fixes the endpoint sequence and
	// hence the meaning of every bit), then the activation bits of the
	// candidate paths in endpoint-major, path-index order.
	var buf [4 + stageKeyPaths/8]byte
	var key []byte
	if n := 4 + (set.bits+7)/8; n <= len(buf) {
		key = buf[:n]
	} else {
		key = make([]byte, n)
	}
	binary.LittleEndian.PutUint32(key, uint32(set.id))
	act := key[4:]
	pos := 0
	for _, e := range paths {
		for i := range e.ps {
			if tr.AllActivated(t, e.ps[i].path.Gates) {
				act[pos>>3] |= 1 << (pos & 7)
			}
			pos++
		}
	}

	a.mu.Lock()
	ent, hit := a.stage[string(key)]
	a.mu.Unlock()
	if !hit {
		ent = a.reduce(paths, func(pos int) bool { return act[pos>>3]>>(pos&7)&1 == 1 })
		a.mu.Lock()
		if prev, ok := a.stage[string(key)]; ok {
			ent = prev // a concurrent miss won the race; both computed the same value
		} else {
			if len(a.stage) >= stageMemoLimit {
				a.stage = map[string]stageEntry{}
			}
			a.stage[string(key)] = ent
		}
		a.mu.Unlock()
	}
	if !ent.ok {
		return variation.Canon{}, false
	}
	// Bitwise ent.neg.AddConst(period), without copying the sensitivities.
	return variation.Canon{Mean: ent.neg.Mean + period, Sens: ent.neg.Sens, Rand: ent.neg.Rand}, true
}

// StageSets returns the per-stage endpoint sets accepted by keep (nil keeps
// everything), in stage order. Callers on hot paths compute this once and
// pass it to InstDTSSets so the per-call set construction — and the interner
// slow path it would trigger — happens once instead of per instruction.
func (a *Analyzer) StageSets(keep func(*netlist.Gate) bool) [][]netlist.GateID {
	if keep == nil {
		keep = func(*netlist.Gate) bool { return true }
	}
	sets := make([][]netlist.GateID, a.Engine.N.Stages)
	for s := range sets {
		sets[s] = a.Engine.N.EndpointsOf(s, keep)
	}
	return sets
}

// InstDTSSets is Algorithm 2 over precomputed per-stage endpoint sets: the
// DTS of the instruction that occupies stage 0 at cycle t is the minimum
// over stages s of the stage DTS at cycle t+s, all under clock period
// period.
func (a *Analyzer) InstDTSSets(t int, tr *activity.Trace, sets [][]netlist.GateID, period float64) (variation.Canon, bool) {
	var forms []variation.Canon
	for s, eps := range sets {
		if len(eps) == 0 {
			continue
		}
		if f, ok := a.StageDTS(eps, t+s, tr, period); ok {
			forms = append(forms, f)
		}
	}
	if len(forms) == 0 {
		return variation.Canon{}, false
	}
	mn, err := sta.StatMin(forms)
	if err != nil {
		return variation.Canon{}, false
	}
	return mn, true
}

// ErrorProbability converts an instruction DTS form into the probability of
// a timing error: P(DTS < 0) under the process-variation model (Section 4.1).
func ErrorProbability(dts variation.Canon) float64 {
	return dts.ProbBelow(0)
}
