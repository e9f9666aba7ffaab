// Package cfg builds control flow graphs over TS-V8 programs, profiles edge
// activation probabilities and basic-block execution counts from simulator
// runs, and computes strongly connected components with Tarjan's algorithm
// plus their condensation topological order — exactly the machinery Section
// 4.2 of the paper needs to set up and order its linear systems.
package cfg

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"tsperr/internal/cpu"
	"tsperr/internal/isa"
)

// Block is a basic block: instructions [Start, End) of the program.
type Block struct {
	ID    int
	Start int
	End   int
	// Succs lists statically known successor block IDs.
	Succs []int
}

// NumInsts returns the instruction count n_i of the block.
func (b *Block) NumInsts() int { return b.End - b.Start }

// Edge identifies a CFG edge by block IDs.
type Edge struct {
	From, To int
}

// Graph is a program CFG.
type Graph struct {
	Prog    *isa.Program
	Blocks  []Block
	BlockOf []int // instruction index -> block ID
}

// Build constructs the CFG. Leaders are the entry, every control-transfer
// target, and every instruction following a control transfer. Indirect jumps
// (jr) contribute no static successors; their edges appear during profiling.
func Build(p *isa.Program) (*Graph, error) {
	n := len(p.Insts)
	if n == 0 {
		return nil, fmt.Errorf("cfg: empty program")
	}
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range p.Insts {
		if in.Op.IsBranch() || in.Op == isa.OpJal {
			if in.Target < 0 || in.Target >= n {
				return nil, fmt.Errorf("cfg: instruction %d targets %d outside program", i, in.Target)
			}
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Op == isa.OpJr || in.Op == isa.OpHalt {
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}
	g := &Graph{Prog: p, BlockOf: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.Blocks = append(g.Blocks, Block{ID: len(g.Blocks), Start: i})
		}
		g.BlockOf[i] = len(g.Blocks) - 1
	}
	for bi := range g.Blocks {
		if bi+1 < len(g.Blocks) {
			g.Blocks[bi].End = g.Blocks[bi+1].Start
		} else {
			g.Blocks[bi].End = n
		}
	}
	// Static successors.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := p.Insts[b.End-1]
		add := func(target int) {
			to := g.BlockOf[target]
			for _, s := range b.Succs {
				if s == to {
					return
				}
			}
			b.Succs = append(b.Succs, to)
		}
		switch {
		case last.Op.IsBranch():
			add(last.Target)
			if b.End < n {
				add(b.End)
			}
		case last.Op == isa.OpJal:
			add(last.Target)
		case last.Op == isa.OpJr, last.Op == isa.OpHalt:
			// No static successors.
		default:
			if b.End < n {
				add(b.End)
			}
		}
	}
	return g, nil
}

// Profile holds measured execution behaviour of a program on its input data,
// observed over one run. Its block and edge counts follow from per
// instruction counts, which a tally run hands over whole (FromTally) and
// Observe and ObserveBatch accumulate from a DynInst stream.
type Profile struct {
	Graph *Graph
	// ExecCount[i] is e_i, the number of executions of block i.
	ExecCount []int64
	// EdgeCount holds dynamic traversal counts, including edges only
	// discoverable dynamically (indirect jumps). After observations, read it
	// through IncomingEdges/ActivationProb or after Finish, which derives it.
	EdgeCount map[Edge]int64
	// InstCount is the total number of retired instructions.
	InstCount int64

	// count, taken and jumps are cpu.Tally's Count, Taken and Jumps;
	// dirty reports observations EdgeCount does not reflect yet.
	count, taken []int64
	jumps        map[cpu.Jump]int64
	dirty        bool
	// incoming caches per-block incoming-edge adjacency, built lazily by
	// Settle and dropped whenever new observations arrive.
	incoming [][]Edge
}

// NewProfile prepares an empty profile for a graph.
func NewProfile(g *Graph) *Profile {
	n := len(g.Prog.Insts)
	return FromTally(g, &cpu.Tally{Count: make([]int64, n), Taken: make([]int64, n), Jumps: map[cpu.Jump]int64{}}, 0)
}

// FromTally returns the profile of one tally run that retired insts
// instructions. It shares t's counts, and Scale never scales them.
func FromTally(g *Graph, t *cpu.Tally, insts int64) *Profile {
	pr := &Profile{
		Graph:     g,
		ExecCount: make([]int64, len(g.Blocks)),
		EdgeCount: map[Edge]int64{},
		InstCount: insts,
		count:     t.Count,
		taken:     t.Taken,
		jumps:     t.Jumps,
	}
	for b := range g.Blocks {
		pr.ExecCount[b] = t.Count[g.Blocks[b].Start]
	}
	pr.deriveEdges()
	return pr
}

// deriveEdges rebuilds EdgeCount from the per-instruction counts. Control
// leaves a block only through its last instruction L, and every branch or
// jal target leads a block, so the identity is exact:
//   - a branch sends taken[L] to its target's block, count[L]-taken[L] on;
//   - a jal sends count[L] to its target's block;
//   - a jr sends each (L, target) count to target's block if target leads
//     one (an entry into a block's middle is no block entry);
//   - a halt sends nothing, and any other L sends count[L] on;
//   - control that falls off the end of the program enters no block.
func (pr *Profile) deriveEdges() {
	g := pr.Graph
	n := len(g.Prog.Insts)
	clear(pr.EdgeCount)
	add := func(from, to int, k int64) {
		if k > 0 && to < n {
			pr.EdgeCount[Edge{From: from, To: g.BlockOf[to]}] += k
		}
	}
	for b := range g.Blocks {
		last := g.Blocks[b].End - 1
		switch in := &g.Prog.Insts[last]; {
		case in.Op.IsBranch():
			add(b, in.Target, pr.taken[last])
			add(b, last+1, pr.count[last]-pr.taken[last])
		case in.Op == isa.OpJal:
			add(b, in.Target, pr.count[last])
		case in.Op != isa.OpJr && in.Op != isa.OpHalt:
			add(b, last+1, pr.count[last])
		}
	}
	for j, k := range pr.jumps {
		if j.Target < n && g.Blocks[g.BlockOf[j.Target]].Start == j.Target {
			add(g.BlockOf[j.PC], j.Target, k)
		}
	}
}

// Finish derives EdgeCount from the observations so far. Profile readers
// call it implicitly; it only needs to be called explicitly before reading
// the EdgeCount map directly. Idempotent.
func (pr *Profile) Finish() {
	if pr.dirty {
		pr.deriveEdges()
		pr.dirty = false
	}
}

// Observe accumulates one retired instruction, as ObserveBatch does.
func (pr *Profile) Observe(d *cpu.DynInst) { pr.ObserveBatch([]cpu.DynInst{*d}) }

// ObserveBatch accumulates a batch of retired instructions: their counts
// and, for each that leads a block, the block's execution (blocks tile the
// program in order, so idx leads one when idx-1 lies in another). Callers
// own InstCount and must set it from the run's Stats.
func (pr *Profile) ObserveBatch(ds []cpu.DynInst) {
	pr.incoming, pr.dirty = nil, true
	blockOf := pr.Graph.BlockOf
	for i := range ds {
		d := &ds[i]
		idx := d.Index
		pr.count[idx]++
		if b := blockOf[idx]; idx == 0 || blockOf[idx-1] != b {
			pr.ExecCount[b]++
		}
		if d.Taken {
			pr.taken[idx]++
			if d.Op == isa.OpJr {
				pr.jumps[cpu.Jump{PC: idx, Target: int(d.A)}]++
			}
		}
	}
}

// Observer returns a cpu.Observer that accumulates this profile.
func (pr *Profile) Observer() cpu.Observer {
	return func(d *cpu.DynInst) {
		pr.InstCount++
		pr.Observe(d)
	}
}

// IncomingEdges returns the profiled incoming edges of a block, sorted by
// source block for determinism. The adjacency is materialized once per
// profile from the edge map and then served from the cache — the marginal
// solver asks for every block's incoming edges, and rescanning the whole map
// per block is quadratic in practice. Callers must not mutate the returned
// slice.
func (pr *Profile) IncomingEdges(block int) []Edge {
	pr.Settle()
	if block < 0 || block >= len(pr.incoming) {
		return nil
	}
	return pr.incoming[block]
}

// Settle derives the edge counts (Finish) and materializes the
// incoming-edge adjacency. The readers call it implicitly, so a profile used
// from one goroutine never needs it; a caller that hands the profile to
// several goroutines calls it first, after which IncomingEdges,
// ActivationProb and the count fields are only read. New observations undo
// it.
func (pr *Profile) Settle() {
	pr.Finish()
	if pr.incoming != nil {
		return
	}
	in := make([][]Edge, len(pr.Graph.Blocks))
	for e := range pr.EdgeCount {
		if e.To >= 0 && e.To < len(in) {
			in[e.To] = append(in[e.To], e)
		}
	}
	for b := range in {
		s := in[b]
		sort.Slice(s, func(i, j int) bool { return s[i].From < s[j].From })
	}
	pr.incoming = in
}

// ActivationProb returns p^a for an edge: the fraction of the target block's
// executions entered through this edge. The program entry block's missing
// mass corresponds to the program start.
func (pr *Profile) ActivationProb(e Edge) float64 {
	pr.Finish()
	if pr.ExecCount[e.To] == 0 {
		return 0
	}
	return float64(pr.EdgeCount[e]) / float64(pr.ExecCount[e.To])
}

// Scale multiplies the block, edge and instruction totals by k, emulating a
// proportionally larger input dataset; the per-instruction counts stay
// those of the run. The Section 5 statistics consume only the totals, so
// scaling is exact for workloads whose block frequencies are input-size
// invariant. Call it after the last observation.
func (pr *Profile) Scale(k int64) {
	pr.Finish()
	for i := range pr.ExecCount {
		pr.ExecCount[i] *= k
	}
	for e := range pr.EdgeCount {
		pr.EdgeCount[e] *= k
	}
	pr.InstCount *= k
}

// Clone returns a deep copy of the profile's counts (the Graph is shared, it
// is immutable after Build). Callers that need both the raw and the Scale()d
// view of one run — e.g. an unscaled Monte Carlo reference next to a scaled
// estimate — clone before scaling.
func (pr *Profile) Clone() *Profile {
	pr.Finish()
	return &Profile{
		Graph:     pr.Graph,
		ExecCount: slices.Clone(pr.ExecCount),
		EdgeCount: maps.Clone(pr.EdgeCount),
		InstCount: pr.InstCount,
		count:     slices.Clone(pr.count),
		taken:     slices.Clone(pr.taken),
		jumps:     maps.Clone(pr.jumps),
	}
}

// SCC computes strongly connected components over the union of static edges
// and profiled dynamic edges. Components are returned in reverse topological
// order of the condensation reversed into *topological* order (sources
// first), so systems can be solved respecting data flow. Comp[i] is the
// component index of block i.
type SCC struct {
	Comps [][]int // Comps[c] lists block IDs, topologically ordered components
	Comp  []int   // block ID -> component index
}

// ComputeSCC runs Tarjan's algorithm.
func ComputeSCC(g *Graph, pr *Profile) *SCC {
	n := len(g.Blocks)
	adj := make([][]int, n)
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	addEdge := func(from, to int) {
		if !seen[from][to] {
			seen[from][to] = true
			adj[from] = append(adj[from], to)
		}
	}
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			addEdge(i, s)
		}
	}
	if pr != nil {
		pr.Finish()
		var edges []Edge
		for e := range pr.EdgeCount {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			addEdge(e.From, e.To)
		}
	}

	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	// Tarjan emits components in reverse topological order; reverse them.
	for i, j := 0, len(comps)-1; i < j; i, j = i+1, j-1 {
		comps[i], comps[j] = comps[j], comps[i]
	}
	s := &SCC{Comps: comps, Comp: make([]int, n)}
	for c, comp := range comps {
		for _, b := range comp {
			s.Comp[b] = c
		}
	}
	return s
}
