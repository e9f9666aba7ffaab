package activity

import (
	"tsperr/internal/cell"
	"tsperr/internal/netlist"
)

// This file keeps the per-cycle logic simulator the package shipped before
// the word-parallel Sim, as the oracle the Sim is tested against: it settles
// every gate once per cycle in topological order, with one Kind.Eval per
// combinational gate, and returns each cycle's activation set.

// BitSet is a dense set of gate IDs.
type BitSet []uint64

// NewBitSet returns a set able to hold n elements.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set inserts id.
func (b BitSet) Set(id netlist.GateID) { b[id>>6] |= 1 << (uint(id) & 63) }

// Clear removes id.
func (b BitSet) Clear(id netlist.GateID) { b[id>>6] &^= 1 << (uint(id) & 63) }

// Has reports membership.
func (b BitSet) Has(id netlist.GateID) bool {
	return b[id>>6]&(1<<(uint(id)&63)) != 0
}

// Count returns the number of members.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Clone returns a copy.
func (b BitSet) Clone() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// Simulator evaluates a netlist one clock cycle at a time.
type Simulator struct {
	n       *netlist.Netlist
	topo    []netlist.GateID
	values  []bool // settled output values in the current cycle
	prev    []bool // settled output values in the previous cycle
	state   []bool // flip-flop captured states
	inBuf   []bool // scratch for gate input gathering
	inDense []bool // scratch for map-to-dense input conversion
	first   bool
}

// NewSimulator builds a simulator; the netlist must validate.
func NewSimulator(n *netlist.Netlist) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	m := n.NumGates()
	return &Simulator{
		n:       n,
		topo:    topo,
		values:  make([]bool, m),
		prev:    make([]bool, m),
		state:   make([]bool, m),
		inBuf:   make([]bool, 3),
		inDense: make([]bool, m),
		first:   true,
	}, nil
}

// Reset clears all state, returning the simulator to power-on (all zeros).
func (s *Simulator) Reset() {
	for i := range s.values {
		s.values[i] = false
		s.prev[i] = false
		s.state[i] = false
	}
	s.first = true
}

// SetState forces a flip-flop's captured state (used to seed architectural
// state).
func (s *Simulator) SetState(id netlist.GateID, v bool) { s.state[id] = v }

// State reads a flip-flop's captured state.
func (s *Simulator) State(id netlist.GateID) bool { return s.state[id] }

// Value reads a gate's settled output in the last simulated cycle.
func (s *Simulator) Value(id netlist.GateID) bool { return s.values[id] }

// Cycle advances one clock cycle: flip-flops capture the D values settled in
// the previous cycle, primary inputs take the supplied values, combinational
// logic settles, and the set of activated gates is returned. The returned
// BitSet is freshly allocated and safe to retain. Inputs absent from the map
// read as false.
func (s *Simulator) Cycle(inputs map[netlist.GateID]bool) BitSet {
	for i := range s.inDense {
		s.inDense[i] = false
	}
	for id, v := range inputs {
		if v && int(id) < len(s.inDense) {
			s.inDense[id] = true
		}
	}
	return s.CycleDense(s.inDense)
}

// CycleDense is Cycle with the primary-input values supplied as a dense
// slice indexed by GateID (len >= NumGates); only INPUT gates are read. The
// caller may mutate and reuse vals across cycles, which avoids the per-cycle
// map hashing of Cycle on hot characterization paths.
func (s *Simulator) CycleDense(vals []bool) BitSet {
	gates := s.n.Gates()
	// Clock edge: capture D pins from the previous cycle's settled values.
	if !s.first {
		for i := range gates {
			g := &gates[i]
			if g.Kind == cell.DFF {
				s.state[g.ID] = s.values[g.Fanin[0]]
			}
		}
	}
	s.prev, s.values = s.values, s.prev
	// Settle in topological order.
	for _, id := range s.topo {
		g := &gates[id]
		switch g.Kind {
		case cell.INPUT:
			s.values[id] = vals[id]
		case cell.DFF:
			s.values[id] = s.state[id]
		case cell.CONST0:
			s.values[id] = false
		case cell.CONST1:
			s.values[id] = true
		default:
			in := s.inBuf[:len(g.Fanin)]
			for k, f := range g.Fanin {
				in[k] = s.values[f]
			}
			s.values[id] = g.Kind.Eval(in)
		}
	}
	// Activation: settled value changed versus the previous cycle. In the
	// very first cycle everything that settles to 1 is considered activated
	// (transition from the unknown/zero power-on state).
	act := NewBitSet(len(gates))
	for i := range gates {
		id := netlist.GateID(i)
		if s.first {
			if s.values[id] {
				act.Set(id)
			}
		} else if s.values[id] != s.prev[id] {
			act.Set(id)
		}
	}
	s.first = false
	return act
}

// Run simulates len(inputSeq) cycles, applying inputSeq[t] at cycle t, and
// returns the per-cycle activation sets.
func (s *Simulator) Run(inputSeq []map[netlist.GateID]bool) []BitSet {
	var sets []BitSet
	for _, in := range inputSeq {
		sets = append(sets, s.Cycle(in))
	}
	return sets
}

// OracleTrace simulates cycles cycles from power-on with the per-cycle
// oracle, taking inputs the way Sim.Run does, and packs the activation sets
// into a Trace, so that tests outside the package can drive the consumers
// of a trace from the oracle.
func OracleTrace(n *netlist.Netlist, cycles int, inputs func(t int, in Inputs)) (*Trace, error) {
	s, err := NewSimulator(n)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	if err := tr.reset(n.NumGates(), cycles); err != nil {
		return nil, err
	}
	word := make([]uint64, n.NumGates())
	vals := make([]bool, n.NumGates())
	for t := 0; t < cycles; t++ {
		clear(word)
		if inputs != nil {
			inputs(t, Inputs{word, 1})
		}
		for id, w := range word {
			vals[id] = w != 0
		}
		act := s.CycleDense(vals)
		for id := 0; id < n.NumGates(); id++ {
			if act.Has(netlist.GateID(id)) {
				tr.act[t>>6*n.NumGates()+id] |= 1 << uint(t&63)
			}
		}
	}
	return tr, nil
}
