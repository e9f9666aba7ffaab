package gdta

import (
	"math"
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/dta"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

func newEngine(t *testing.T, n *netlist.Netlist, period float64) *sta.Engine {
	t.Helper()
	m, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sta.NewEngine(n, m, period, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// simulate compiles n and runs cycles cycles, set driving each cycle's
// inputs.
func simulate(t *testing.T, n *netlist.Netlist, cycles int, set func(c int, in activity.Inputs)) *activity.Trace {
	t.Helper()
	sim, err := activity.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(cycles, set)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// chainFixture: in -> inv x n -> ff. Simple enough that the exact activated
// path delay is known.
func chainFixture(t *testing.T, n int, period float64) (*Analyzer, *dta.Analyzer, *activity.Trace, []netlist.GateID) {
	t.Helper()
	nl := netlist.New("chain", 1)
	in := nl.Add(cell.INPUT, "in", 0)
	prev := in
	for i := 0; i < n; i++ {
		prev = nl.Add(cell.INV, "inv", 0, prev)
	}
	ff := nl.Add(cell.DFF, "ff", 0, prev)
	_ = ff
	gen.Place(nl)
	e := newEngine(t, nl, period)
	ga, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	pa := dta.New(e, 8)
	tr := simulate(t, nl, 2, func(c int, inp activity.Inputs) { inp.Set(in, c == 1) })
	return ga, pa, tr, nl.Endpoints(0)
}

func TestGraphMatchesPathOnChain(t *testing.T) {
	ga, pa, tr, eps := chainFixture(t, 6, 1000)
	g, ok1 := ga.StageDTS(eps, 1, tr)
	p, ok2 := pa.StageDTS(eps, 1, tr)
	p = p.AddConst(pa.Engine.ClockPeriod) // the graph method's DTS is at the engine's clock
	if !ok1 || !ok2 {
		t.Fatal("both analyzers should find the activated chain")
	}
	if math.Abs(g.Mean-p.Mean) > 1e-6 {
		t.Errorf("graph %v vs path %v DTS mean", g.Mean, p.Mean)
	}
	if math.Abs(g.Std()-p.Std()) > 1e-6 {
		t.Errorf("graph %v vs path %v DTS sigma", g.Std(), p.Std())
	}
}

func TestGraphNoActivation(t *testing.T) {
	ga, _, tr, eps := chainFixture(t, 4, 1000)
	// Cycle 0 has no input change: nothing activated.
	if _, ok := ga.StageDTS(eps, 0, tr); ok {
		t.Error("quiet cycle should yield no DTS")
	}
	if _, ok := ga.StageDTS(eps, 99, tr); ok {
		t.Error("out-of-range cycle should yield no DTS")
	}
}

func TestGraphAtMostPathDTSOnAdder(t *testing.T) {
	// The graph method sees every activated path; the path method only the
	// K it enumerated. Graph DTS therefore cannot exceed path DTS by more
	// than the Clark-approximation wiggle.
	ad := gen.Adder()
	e := newEngine(t, ad.N, 2400)
	ga, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	pa := dta.New(e, 8)
	ops := [][2]uint32{{0, 0}, {0xFFFFFFFF, 1}, {3, 5}, {0x0F0F0F0F, 0x00F0F0F1}}
	tr := simulate(t, ad.N, len(ops), func(c int, in activity.Inputs) {
		in.SetWord(ad.A[:], uint64(ops[c][0]))
		in.SetWord(ad.B[:], uint64(ops[c][1]))
		in.Set(ad.Cin, false)
	})
	eps := ad.N.Endpoints(0)
	for cyc := 1; cyc < len(ops); cyc++ {
		g, okG := ga.StageDTS(eps, cyc, tr)
		p, okP := pa.StageDTS(eps, cyc, tr)
		p = p.AddConst(pa.Engine.ClockPeriod)
		// The graph method sees a superset of the enumerated paths: it may
		// report DTS where top-K path enumeration found nothing, never the
		// reverse.
		if okP && !okG {
			t.Fatalf("cycle %d: path-based found activation the graph method missed", cyc)
		}
		if !okP || !okG {
			continue
		}
		if g.Mean > p.Mean+5 {
			t.Errorf("cycle %d: graph DTS %v should not exceed path DTS %v", cyc, g.Mean, p.Mean)
		}
		// And they should agree closely when the critical path is in the
		// enumerated set (full-carry cycle).
		if cyc == 1 && math.Abs(g.Mean-p.Mean) > 40 {
			t.Errorf("cycle 1: graph %v vs path %v too far apart", g.Mean, p.Mean)
		}
	}
}

func TestGraphInstDTSControl(t *testing.T) {
	c := gen.Control()
	e := newEngine(t, c.N, 1500)
	ga, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	tr := simulate(t, c.N, 10, func(i int, in activity.Inputs) {
		in.SetWord(c.Instr[:], uint64(uint32(0x04211000+i*0x5A5A5A5)))
		in.SetWord(c.ExResult[:], uint64(uint32(i)*0x10101))
	})
	inst, ok := ga.InstDTS(1, tr, func(g *netlist.Gate) bool { return !g.Data })
	if !ok {
		t.Fatal("expected an instruction DTS")
	}
	if inst.Mean <= 0 || inst.Mean > 1500 {
		t.Errorf("instruction DTS mean %v implausible", inst.Mean)
	}
	if inst.Std() <= 0 {
		t.Error("instruction DTS must carry process variation")
	}
}
