package gen

import (
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/cpu"
	"tsperr/internal/isa"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

func TestControlValidatesAndHasEndpoints(t *testing.T) {
	c := Control()
	if err := c.N.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < cpu.NumStages; s++ {
		eps := c.N.Endpoints(s)
		if len(eps) == 0 {
			t.Errorf("stage %d has no endpoints", s)
		}
		total += len(eps)
		for _, ep := range eps {
			if c.N.Gate(ep).Data {
				t.Errorf("control network endpoint %q marked as data", c.N.Gate(ep).Name)
			}
		}
	}
	if total < 60 {
		t.Errorf("control network suspiciously small: %d endpoints", total)
	}
	if c.N.NumGates() < 400 {
		t.Errorf("control network has only %d gates", c.N.NumGates())
	}
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

// value returns gate id's settled output at cycle t: every gate powers on at
// 0 and toggles exactly when it is activated.
func value(tr *activity.Trace, t int, id netlist.GateID) bool {
	v := false
	for c := 0; c <= t; c++ {
		v = v != tr.Activated(c, id)
	}
	return v
}

// word reads a 32-bit result at cycle t from the D pins of the given
// flip-flops.
func word(tr *activity.Trace, n *netlist.Netlist, t int, ffs []netlist.GateID) uint32 {
	var w uint32
	for i, ff := range ffs {
		if value(tr, t, n.Gate(ff).Fanin[0]) {
			w |= 1 << uint(i)
		}
	}
	return w
}

func findGate(n *netlist.Netlist, name string) netlist.GateID {
	for i := range n.Gates() {
		if n.Gates()[i].Name == name {
			return netlist.GateID(i)
		}
	}
	panic("gate not found: " + name)
}

func TestControlDecodeLogic(t *testing.T) {
	c := Control()
	addWord := isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2}.Encode()
	lwWord := isa.Inst{Op: isa.OpLw, Rd: 4, Rs1: 3, Imm: 8}.Encode()
	// Cycles 0-1: add enters the IR inputs, then IR holds add and decode
	// settles; cycles 2-3: the same for lw.
	tr := simulate(t, c.N, 4, func(cyc int, in activity.Inputs) {
		w := addWord
		if cyc >= 2 {
			w = lwWord
		}
		in.SetWord(c.Instr[:], uint64(w))
	})

	isRFF := findGate(c.N, "dec_isR_ff")
	isLdFF := findGate(c.N, "dec_isLd_ff")
	// The decoded value is at the FF's D pin now; after one more edge it is
	// captured. Check the combinational decode directly via the FF's fanin.
	dR := c.N.Gate(isRFF).Fanin[0]
	dLd := c.N.Gate(isLdFF).Fanin[0]
	if !value(tr, 1, dR) {
		t.Error("add should decode as R-type")
	}
	if value(tr, 1, dLd) {
		t.Error("add should not decode as load")
	}
	if value(tr, 3, dR) {
		t.Error("lw should not decode as R-type")
	}
	if !value(tr, 3, dLd) {
		t.Error("lw should decode as load")
	}
}

func TestControlActivityDependsOnInstructionSequence(t *testing.T) {
	c := Control()
	// Alternate two very different instructions: lots of decode activity.
	w1 := isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2}.Encode()
	w2 := isa.Inst{Op: isa.OpBeq, Rs1: 7, Rs2: 9, Imm: -4}.Encode()
	tr := simulate(t, c.N, 10, func(i int, in activity.Inputs) {
		if i%2 == 0 {
			in.SetWord(c.Instr[:], uint64(w1))
		} else {
			in.SetWord(c.Instr[:], uint64(w2))
		}
	})
	busy := 0
	for i := 0; i < 10; i++ {
		busy += tr.Count(i)
	}
	// Repeat one instruction from power-on: after warmup little should
	// toggle.
	tr = simulate(t, c.N, 10, func(_ int, in activity.Inputs) { in.SetWord(c.Instr[:], uint64(w1)) })
	quiet := 0
	for i := 3; i < 10; i++ {
		quiet += tr.Count(i)
	}
	if quiet*3 >= busy {
		t.Errorf("steady instruction stream should activate far fewer gates: busy=%d quiet=%d", busy, quiet)
	}
}

func TestAdderFunctional(t *testing.T) {
	ad := Adder()
	if err := ad.N.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b uint32 }{
		{0, 0}, {1, 1}, {0xFFFFFFFF, 1}, {12345, 67890}, {0x80000000, 0x80000000},
	}
	tr := simulate(t, ad.N, len(cases), func(c int, in activity.Inputs) {
		in.SetWord(ad.A[:], uint64(cases[c].a))
		in.SetWord(ad.B[:], uint64(cases[c].b))
	})
	for c, tc := range cases {
		if got := word(tr, ad.N, c, ad.Sum[:]); got != tc.a+tc.b {
			t.Errorf("adder(%x,%x) = %x, want %x", tc.a, tc.b, got, tc.a+tc.b)
		}
	}
}

func TestAdderActivationTracksCarryChain(t *testing.T) {
	ad := Adder()
	// Cycles 0-1 settle at zero, cycle 2 is a short carry (1+1, which
	// toggles only the low bits), cycle 3 resets to zero, and cycle 4 is a
	// full-length carry chain.
	ops := [][2]uint32{{0, 0}, {0, 0}, {1, 1}, {0, 0}, {0xFFFFFFFF, 1}}
	tr := simulate(t, ad.N, len(ops), func(c int, in activity.Inputs) {
		in.SetWord(ad.A[:], uint64(ops[c][0]))
		in.SetWord(ad.B[:], uint64(ops[c][1]))
	})
	short, long := tr.Count(2), tr.Count(4)
	if long <= short {
		t.Errorf("long carry chain should activate more gates: short=%d long=%d", short, long)
	}
}

func TestShifterFunctional(t *testing.T) {
	sh := Shifter()
	if err := sh.N.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v   uint32
		amt uint32
	}{
		{0xDEADBEEF, 0}, {0xDEADBEEF, 1}, {0xDEADBEEF, 13}, {0xDEADBEEF, 31},
	}
	tr := simulate(t, sh.N, len(cases), func(c int, in activity.Inputs) {
		in.SetWord(sh.In[:], uint64(cases[c].v))
		in.SetWord(sh.Amt[:], uint64(cases[c].amt))
	})
	for c, tc := range cases {
		if got := word(tr, sh.N, c, sh.Out[:]); got != tc.v>>tc.amt {
			t.Errorf("shift(%x,%d) = %x, want %x", tc.v, tc.amt, got, tc.v>>tc.amt)
		}
	}
}

func TestLogicFunctional(t *testing.T) {
	l := Logic()
	a, b := uint32(0xF0F0A5A5), uint32(0x0FF0FFFF)
	want := []uint32{a & b, a | b, a ^ b, a ^ b} // by sel
	tr := simulate(t, l.N, len(want), func(sel int, in activity.Inputs) {
		in.SetWord(l.A[:], uint64(a))
		in.SetWord(l.B[:], uint64(b))
		in.SetWord(l.Sel[:], uint64(sel))
	})
	for sel := range want {
		if got := word(tr, l.N, sel, l.Out[:]); got != want[sel] {
			t.Errorf("logic sel=%d = %x, want %x", sel, got, want[sel])
		}
	}
}

func TestDataEndpointsMarked(t *testing.T) {
	ad := Adder()
	data := ad.N.DataEndpoints(0)
	if len(data) != 33 { // 32 sum + carry out
		t.Errorf("adder data endpoints = %d, want 33", len(data))
	}
	if len(ad.N.ControlEndpoints(0)) != 0 {
		t.Error("adder should have no control endpoints")
	}
}

func TestPlacementWithinDie(t *testing.T) {
	c := Control()
	for i := range c.N.Gates() {
		g := &c.N.Gates()[i]
		if g.X < 0 || g.X >= 1 || g.Y < 0 || g.Y >= 1 {
			t.Fatalf("gate %q placed at (%v,%v) outside the die", g.Name, g.X, g.Y)
		}
	}
	// Same-stage gates should occupy the same column band.
	g0 := c.N.Gates()[0]
	for i := range c.N.Gates() {
		g := &c.N.Gates()[i]
		if g.Stage == g0.Stage {
			continue
		}
	}
}

func TestCalibrateScale(t *testing.T) {
	model, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ad := Adder()
	target := 1392.8 // period of 718 MHz in ps
	scale, err := CalibrateScale([]*netlist.Netlist{ad.N}, model, cell.SigmaRel, target, 0.99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	e, err := sta.NewEngine(ad.N, model, target, cell.SigmaRel, scale)
	if err != nil {
		t.Fatal(err)
	}
	got := e.MaxDelayPercentile(0.99, 4)
	if got < target*0.98 || got > target*1.02 {
		t.Errorf("calibrated p99 max delay = %v, want ~%v", got, target)
	}
}

func TestCalibrateScaleEmpty(t *testing.T) {
	model, _ := variation.NewModel(1, 0.5)
	n := netlist.New("empty", 1)
	n.Add(cell.INPUT, "a", 0)
	if _, err := CalibrateScale([]*netlist.Netlist{n}, model, 0.05, 1000, 0.99, 4); err == nil {
		t.Error("expected error for netlist without paths")
	}
}
