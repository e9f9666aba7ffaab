package activity

import (
	"fmt"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
)

// randomNetlist builds a netlist of every cell kind with flip-flop feedback:
// flip-flops that hold their own output or read a later gate, hold loops
// through MUX2 like the control network's instruction register, and a
// ripple counter through XOR2 and AND2 like its PC. It returns the netlist
// and its primary inputs.
func randomNetlist(rng *numeric.RNG, size int) (*netlist.Netlist, []netlist.GateID) {
	n := netlist.New("random", 1)
	var inputs, all, ffs []netlist.GateID
	for i := 0; i < 1+rng.Intn(6); i++ {
		inputs = append(inputs, n.Add(cell.INPUT, fmt.Sprintf("in%d", i), 0))
	}
	all = append(all, inputs...)
	all = append(all, n.Add(cell.CONST0, "zero", 0), n.Add(cell.CONST1, "one", 0))
	pick := func() netlist.GateID { return all[rng.Intn(len(all))] }
	kinds := []cell.Kind{
		cell.BUF, cell.INV, cell.AND2, cell.OR2, cell.NAND2, cell.NOR2,
		cell.XOR2, cell.XNOR2, cell.MUX2, cell.DFF,
	}
	for i := 0; i < size; i++ {
		k := kinds[rng.Intn(len(kinds))]
		fanin := make([]netlist.GateID, k.NumInputs())
		for j := range fanin {
			fanin[j] = pick()
		}
		id := n.Add(k, fmt.Sprintf("g%d", i), 0, fanin...)
		if k == cell.DFF {
			ffs = append(ffs, id)
		}
		all = append(all, id)
	}
	for r := 0; r < 1+rng.Intn(3); r++ {
		// Hold register: q' = sel ? q : d.
		q := n.Add(cell.DFF, fmt.Sprintf("hold_q%d", r), 0, inputs[0])
		hold := n.Add(cell.MUX2, fmt.Sprintf("hold%d", r), 0, pick(), q, pick())
		n.Gate(q).Fanin[0] = hold
		all = append(all, q, hold)
	}
	// Ripple counter: bit i toggles when the enable and every lower bit are 1.
	carry := pick()
	for i := 0; i < 1+rng.Intn(4); i++ {
		pc := n.Add(cell.DFF, fmt.Sprintf("pc%d", i), 0, inputs[0])
		sum := n.Add(cell.XOR2, fmt.Sprintf("pc_sum%d", i), 0, pc, carry)
		n.Gate(pc).Fanin[0] = sum
		carry = n.Add(cell.AND2, fmt.Sprintf("pc_c%d", i), 0, pc, carry)
		all = append(all, pc, sum, carry)
	}
	for _, ff := range ffs {
		switch rng.Intn(4) {
		case 0:
			n.Gate(ff).Fanin[0] = ff
		case 1:
			n.Gate(ff).Fanin[0] = pick()
		}
	}
	return n, inputs
}

// checkAgainstOracle simulates inputs (one value per input per cycle) with
// the compiled simulator and the per-cycle oracle and fails on the first
// activation bit where they differ.
func checkAgainstOracle(t *testing.T, n *netlist.Netlist, inputs []netlist.GateID, stim [][]bool) {
	t.Helper()
	sim, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(len(stim), func(c int, in Inputs) {
		for i, id := range inputs {
			in.Set(id, stim[c][i])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles() != len(stim) || tr.NumGates() != n.NumGates() {
		t.Fatalf("trace is %d gates × %d cycles, want %d × %d", tr.NumGates(), tr.Cycles(), n.NumGates(), len(stim))
	}
	vals := make([]bool, n.NumGates())
	for c, row := range stim {
		for i, id := range inputs {
			vals[id] = row[i]
		}
		want := oracle.CycleDense(vals)
		for g := 0; g < n.NumGates(); g++ {
			id := netlist.GateID(g)
			if got := tr.Activated(c, id); got != want.Has(id) {
				t.Fatalf("%s: cycle %d of %d, gate %s (%v): activated %v, oracle %v",
					n.Name, c, len(stim), n.Gate(id).Name, n.Gate(id).Kind, got, want.Has(id))
			}
		}
	}
}

// TestSimMatchesOracleOnRandomNetlists compares every activation bit of the
// compiled simulator with the per-cycle oracle on random netlists with
// sequential loops, over stimuli of 1-200 cycles so that runs cross 64-cycle
// chunk boundaries.
func TestSimMatchesOracleOnRandomNetlists(t *testing.T) {
	rng := numeric.NewRNG(2026)
	for trial := 0; trial < 300; trial++ {
		n, inputs := randomNetlist(rng, 5+rng.Intn(80))
		n.Name = fmt.Sprintf("random#%d", trial)
		stim := make([][]bool, 1+rng.Intn(200))
		density := rng.Float64()
		for c := range stim {
			stim[c] = make([]bool, len(inputs))
			for i := range stim[c] {
				stim[c][i] = rng.Float64() < density
			}
		}
		checkAgainstOracle(t, n, inputs, stim)
	}
}

// TestCompileFindsLoops checks the schedule's split on a known netlist: a
// self-holding flip-flop and a two-gate toggle loop settle as loops, the
// gates around them as word operations.
func TestCompileFindsLoops(t *testing.T) {
	n := netlist.New("loops", 1)
	in := n.Add(cell.INPUT, "in", 0)
	self := n.Add(cell.DFF, "self", 0, in)
	n.Gate(self).Fanin[0] = self
	q := n.Add(cell.DFF, "q", 0, in)
	x := n.Add(cell.XOR2, "x", 0, q, in)
	n.Gate(q).Fanin[0] = x
	n.Add(cell.INV, "after", 0, x)
	sim, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	loop, word := 0, 0
	for _, seg := range sim.segs {
		if seg.loop {
			loop += len(seg.ops)
		} else {
			word += len(seg.ops)
		}
	}
	if loop != 3 || word != 1 {
		t.Errorf("%d loop ops and %d word ops, want 3 and 1", loop, word)
	}
	checkAgainstOracle(t, n, []netlist.GateID{in}, [][]bool{{true}, {false}, {true}, {true}, {false}})
}
