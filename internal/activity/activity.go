// Package activity performs cycle-accurate logic simulation of a netlist and
// records, for every clock cycle, the set of activated gates per Definition
// 3.2 of the paper: a gate is activated in a cycle if, were the clock period
// sufficiently long, its output net would eventually change value. With a
// zero-delay settling model this is exactly "the settled output at cycle t
// differs from the settled output at cycle t-1". The per-cycle activation
// sets are the VCD(t) input of Algorithm 1.
//
// A netlist is compiled once into a Sim, which simulates a whole stimulus in
// one pass over 64-cycle words: a gate's settled values over 64 consecutive
// cycles are one uint64, bit t holding cycle t. A gate outside a sequential
// loop costs one word operation per 64 cycles — a flip-flop is its D word
// shifted one bit, and activation is v ^ v<<1. Only the gates on a feedback
// loop through a flip-flop (a register that holds or counts) read their own
// earlier cycles; their word operations repeat until the loop settles, in
// dependency order with the rest.
package activity

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
)

// MaxTraceBits caps the size of a trace in gates × cycles (a gateless trace
// counts as one gate): 2^22 bits, 512 KiB of activation words, about 4700
// cycles of the 894-gate control network. Simulation rejects a longer
// stimulus, and ReadVCD a document whose timestamps reach past the cap, so a
// few bytes of input cannot demand unbounded memory.
const MaxTraceBits = 1 << 22

// Trace is the activation record of one run: VCD(t) for every cycle t.
type Trace struct {
	gates, cycles int
	// act holds one word per gate per 64-cycle chunk: bit t of
	// act[c*gates+id] is set when gate id is activated at cycle 64c+t.
	act []uint64
	// carry is Run's scratch: every gate's settled value in the last cycle
	// of the previous chunk, one bit per gate.
	carry []uint64
	// owner is the simulator whose free list Release returns the storage
	// to, in store; both are nil once released, and for traces ReadVCD
	// builds.
	owner *Sim
	store *storage
}

// storage is the word storage a simulator recycles between runs. The pool
// holds the storage, never a Trace, so a trace read after its Release
// cannot see a later run's bits.
type storage struct{ act, carry []uint64 }

// reset shapes tr for a run of cycles cycles over gates gates, all words
// cleared, reusing its storage where it is large enough.
func (tr *Trace) reset(gates, cycles int) error {
	if cycles < 0 || max(gates, 1) > MaxTraceBits/max(cycles, 1) {
		return fmt.Errorf("activity: a trace of %d gates × %d cycles is outside [0, %d] bits", gates, cycles, MaxTraceBits)
	}
	tr.gates, tr.cycles = gates, cycles
	tr.act = resize(tr.act, gates*((cycles+63)>>6))
	tr.carry = resize(tr.carry, (gates+63)>>6)
	return nil
}

// resize returns a cleared slice of n words, reusing s when it is large
// enough.
func resize(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Release returns the trace's storage to the simulator that made it, for a
// later run to reuse. The trace must not be read afterwards: a read of its
// cycles panics. Releasing is optional — an unreleased trace is garbage
// collected — and a no-op for a trace ReadVCD built or one already released.
func (tr *Trace) Release() {
	if s := tr.owner; s != nil {
		tr.store.act, tr.store.carry = tr.act, tr.carry
		s.free.Put(tr.store)
		tr.act, tr.carry, tr.owner, tr.store = nil, nil, nil, nil
	}
}

// NumGates returns the size of the simulated netlist.
func (tr *Trace) NumGates() int { return tr.gates }

// Cycles returns the trace length.
func (tr *Trace) Cycles() int { return tr.cycles }

// Activated reports whether gate id is activated at cycle t. Cycles outside
// the trace report false.
func (tr *Trace) Activated(t int, id netlist.GateID) bool {
	if uint(t) >= uint(tr.cycles) {
		return false
	}
	return tr.act[t>>6*tr.gates+int(id)]>>(uint(t)&63)&1 != 0
}

// AllActivated reports whether every gate in ids is activated at cycle t —
// for a path's gates, whether the path is activated (Definition 3.3). It
// tests the gates last-first: a path's last gate drives its endpoint, so
// when an endpoint's D pin is quiet every path to it fails the first test.
func (tr *Trace) AllActivated(t int, ids []netlist.GateID) bool {
	if uint(t) >= uint(tr.cycles) {
		return len(ids) == 0
	}
	words, sh := tr.act[t>>6*tr.gates:][:tr.gates], uint(t)&63
	for i := len(ids) - 1; i >= 0; i-- {
		if words[ids[i]]>>sh&1 == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of gates activated at cycle t.
func (tr *Trace) Count(t int) int {
	n := 0
	for id := 0; id < tr.gates; id++ {
		if tr.Activated(t, netlist.GateID(id)) {
			n++
		}
	}
	return n
}

// Inputs sets the primary inputs of one cycle of a run. Inputs left unset
// read as false; values set on gates that are not inputs are ignored.
type Inputs struct {
	val []uint64
	bit uint64
}

// Set drives gate id with v.
func (in Inputs) Set(id netlist.GateID, v bool) {
	if v {
		in.val[id] |= in.bit
	} else {
		in.val[id] &^= in.bit
	}
}

// SetWord drives ids[i] with bit i of w.
func (in Inputs) SetWord(ids []netlist.GateID, w uint64) {
	for i, id := range ids {
		in.Set(id, w>>uint(i)&1 != 0)
	}
}

// op is one gate of the compiled schedule: its kind, its output slot and
// its fanin slots in pin order (unused pins are 0).
type op struct {
	kind cell.Kind
	dst  int32
	in   [3]int32
}

// segment is a run of ops evaluated together: each op once on whole words,
// or, for sequential loops, the ops in order until their words settle.
type segment struct {
	ops  []op
	loop bool
}

// Sim is a netlist compiled for word-parallel simulation. It is safe for
// concurrent use.
type Sim struct {
	gates int
	segs  []segment
	// free recycles the *storage of released traces: a caller that
	// simulates many stimuli in turn reuses a few word buffers instead of
	// allocating them per run.
	free sync.Pool
}

// Compile prepares a netlist for simulation; the netlist must validate.
// Gates are scheduled by the strongly connected components of the graph
// whose edges run from each gate to its fanins, flip-flop D pins included,
// every component after those it reads. A component of one gate that does
// not feed itself is a word operation (primary inputs are set by the run);
// a larger component, or a flip-flop that holds its own output, is a
// sequential loop, its gates in topological order with its flip-flops
// first.
func Compile(n *netlist.Netlist) (*Sim, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	gates := n.Gates()
	pos := make([]int, len(gates))
	for i, id := range topo {
		if !gates[id].Kind.Known() {
			return nil, fmt.Errorf("activity: netlist %q: gate %q has unknown kind %v", n.Name, gates[id].Name, gates[id].Kind)
		}
		pos[id] = i
	}
	s := &Sim{gates: len(gates)}
	for _, comp := range components(gates) {
		g := &gates[comp[0]]
		if len(comp) == 1 && !slices.Contains(g.Fanin, g.ID) {
			if g.Kind != cell.INPUT {
				s.add(false, g)
			}
			continue
		}
		sort.Slice(comp, func(i, j int) bool {
			fi, fj := gates[comp[i]].Kind == cell.DFF, gates[comp[j]].Kind == cell.DFF
			if fi != fj {
				return fi
			}
			return pos[comp[i]] < pos[comp[j]]
		})
		for _, id := range comp {
			s.add(true, &gates[id])
		}
	}
	return s, nil
}

// add appends gate g to the schedule, opening a new segment when the
// evaluation mode changes.
func (s *Sim) add(loop bool, g *netlist.Gate) {
	o := op{kind: g.Kind, dst: int32(g.ID)}
	for i, f := range g.Fanin {
		o.in[i] = int32(f)
	}
	if k := len(s.segs); k == 0 || s.segs[k-1].loop != loop {
		s.segs = append(s.segs, segment{loop: loop})
	}
	seg := &s.segs[len(s.segs)-1]
	seg.ops = append(seg.ops, o)
}

// components returns the strongly connected components of the graph whose
// edges run from each gate to its fanins (Tarjan's algorithm), each
// component after every component it reads.
func components(gates []netlist.Gate) [][]netlist.GateID {
	index := make([]int, len(gates)) // DFS preorder number + 1; 0 = unvisited
	low := make([]int, len(gates))
	onStack := make([]bool, len(gates))
	var stack []netlist.GateID
	var out [][]netlist.GateID
	next := 1
	var visit func(v netlist.GateID)
	visit = func(v netlist.GateID) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range gates[v].Fanin {
			if index[w] == 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []netlist.GateID
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		out = append(out, comp)
	}
	for i := range gates {
		if index[i] == 0 {
			visit(netlist.GateID(i))
		}
	}
	return out
}

// Run simulates cycles clock cycles from power-on, when every net and
// flip-flop is 0, and returns the activation trace. inputs, when non-nil,
// is called once per cycle, in cycle order, to set that cycle's primary
// inputs. A trace larger than MaxTraceBits is an error.
func (s *Sim) Run(cycles int, inputs func(t int, in Inputs)) (*Trace, error) {
	st, _ := s.free.Get().(*storage)
	if st == nil {
		st = new(storage)
	}
	tr := &Trace{act: st.act, carry: st.carry, owner: s, store: st}
	if err := tr.reset(s.gates, cycles); err != nil {
		tr.Release()
		return nil, err
	}
	for c := 0; 64*c < cycles; c++ {
		val := tr.act[c*s.gates : (c+1)*s.gates]
		n := min(cycles-64*c, 64)
		if inputs != nil {
			for t := 0; t < n; t++ {
				inputs(64*c+t, Inputs{val, 1 << uint(t)})
			}
		}
		s.chunk(val, tr.carry, n)
		tr.activate(val, n, 64*(c+1) < cycles)
	}
	return tr, nil
}

// chunk settles the n cycles of one 64-cycle chunk into val, whose primary
// input words are already set; carry holds every gate's value in the last
// cycle of the previous chunk (zero in the first).
//
// A sequential loop settles by repeating its word operations, in order,
// until no word changes within the chunk's n cycles. Cycle t of a loop gate
// depends only on cycles up to t — a flip-flop reads its D pin one cycle
// late — so every pass fixes at least one more cycle and the settled words
// are the loop's unique solution, reached in at most n+1 passes: the cost
// of evaluating the loop one cycle at a time. A register that holds still
// or loads settles in two or three passes; a counter's low bit, which
// toggles every cycle, takes all n.
func (s *Sim) chunk(val, carry []uint64, n int) {
	for i := range s.segs {
		seg := &s.segs[i]
		if !seg.loop {
			for j := range seg.ops {
				o := &seg.ops[j]
				val[o.dst] = o.eval(val, carry)
			}
			continue
		}
		mask := ^uint64(0) >> uint(64-n)
		for changed := true; changed; {
			changed = false
			for j := range seg.ops {
				o := &seg.ops[j]
				v := o.eval(val, carry)
				changed = changed || (v^val[o.dst])&mask != 0
				val[o.dst] = v
			}
		}
	}
}

// eval computes the op's output word from its fanin words. A flip-flop
// outputs its D pin one cycle late, so its word is D's shifted one bit,
// continued from D's last value in the previous chunk.
func (o *op) eval(val, carry []uint64) uint64 {
	a, b := o.in[0], o.in[1]
	switch o.kind {
	case cell.CONST0:
		return 0
	case cell.CONST1:
		return ^uint64(0)
	case cell.BUF:
		return val[a]
	case cell.INV:
		return ^val[a]
	case cell.AND2:
		return val[a] & val[b]
	case cell.OR2:
		return val[a] | val[b]
	case cell.NAND2:
		return ^(val[a] & val[b])
	case cell.NOR2:
		return ^(val[a] | val[b])
	case cell.XOR2:
		return val[a] ^ val[b]
	case cell.XNOR2:
		return ^(val[a] ^ val[b])
	case cell.MUX2:
		sel := val[o.in[2]]
		return val[a]&^sel | val[b]&sel
	default: // DFF
		return val[a]<<1 | carry[a>>6]>>(uint(a)&63)&1
	}
}

// activate turns the settled values of an n-cycle chunk into activation
// words in place: a gate is activated when its value differs from the
// cycle before. When more chunks follow, it records every gate's last value
// in carry.
func (tr *Trace) activate(val []uint64, n int, more bool) {
	mask := ^uint64(0) >> uint(64-n)
	for id, v := range val {
		w, sh := id>>6, uint(id)&63
		prev := tr.carry[w] >> sh & 1
		if more {
			tr.carry[w] = tr.carry[w]&^(1<<sh) | (v>>uint(n-1)&1)<<sh
		}
		val[id] = (v ^ (v<<1 | prev)) & mask
	}
}
