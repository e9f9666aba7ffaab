package activity

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
)

// buildAdderStage returns a 1-stage netlist computing sum/carry of two input
// bits into two flip-flops.
func buildAdderStage(t *testing.T) (*netlist.Netlist, map[string]netlist.GateID) {
	t.Helper()
	n := netlist.New("halfadder", 1)
	ids := map[string]netlist.GateID{}
	ids["a"] = n.Add(cell.INPUT, "a", 0)
	ids["b"] = n.Add(cell.INPUT, "b", 0)
	ids["sum"] = n.Add(cell.XOR2, "sum", 0, ids["a"], ids["b"])
	ids["carry"] = n.Add(cell.AND2, "carry", 0, ids["a"], ids["b"])
	ids["ffs"] = n.Add(cell.DFF, "ffs", 0, ids["sum"])
	ids["ffc"] = n.Add(cell.DFF, "ffc", 0, ids["carry"])
	return n, ids
}

// run compiles n and simulates one cycle per element of seq, driving the
// listed inputs high.
func run(t *testing.T, n *netlist.Netlist, seq ...[]netlist.GateID) *Trace {
	t.Helper()
	sim, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(len(seq), func(c int, in Inputs) {
		for _, id := range seq[c] {
			in.Set(id, true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// value returns gate id's settled output at cycle t: every gate powers on at
// 0 and toggles exactly when it is activated.
func value(tr *Trace, t int, id netlist.GateID) bool {
	v := false
	for c := 0; c <= t; c++ {
		v = v != tr.Activated(c, id)
	}
	return v
}

func TestSimulatorLogic(t *testing.T) {
	n, ids := buildAdderStage(t)
	// Cycle 0: a=1 b=0 -> sum=1 carry=0. Cycle 1: a=1 b=1.
	tr := run(t, n, []netlist.GateID{ids["a"]}, []netlist.GateID{ids["a"], ids["b"]})
	if !value(tr, 0, ids["sum"]) || value(tr, 0, ids["carry"]) {
		t.Fatal("half adder logic wrong for 1+0")
	}
	// Cycle 1: flip-flops output what they captured at the edge.
	if !value(tr, 1, ids["ffs"]) || value(tr, 1, ids["ffc"]) {
		t.Fatal("FF should have captured sum=1 carry=0")
	}
	if value(tr, 1, ids["sum"]) || !value(tr, 1, ids["carry"]) {
		t.Fatal("half adder logic wrong for 1+1")
	}
}

func TestActivationSemantics(t *testing.T) {
	n, ids := buildAdderStage(t)
	a := []netlist.GateID{ids["a"]}
	tr := run(t, n, a, a, nil)
	// Cycle 0: a=1 -> sum toggles to 1 (activated), carry stays 0.
	if !tr.Activated(0, ids["sum"]) {
		t.Error("sum should be activated in cycle 0")
	}
	if tr.Activated(0, ids["carry"]) {
		t.Error("carry stayed 0 and should not be activated")
	}
	// Cycle 1: same inputs -> combinational nets unchanged; only the sum FF
	// output changes as it captures the 1.
	if tr.Activated(1, ids["sum"]) || tr.Activated(1, ids["carry"]) {
		t.Error("unchanged nets must not be activated")
	}
	if !tr.Activated(1, ids["ffs"]) {
		t.Error("ffs output changed 0->1 and should be activated")
	}
	// Cycle 2: a=0 -> sum toggles 1->0.
	if !tr.Activated(2, ids["sum"]) {
		t.Error("sum should be activated when input drops")
	}
}

// TestSimulatorReset checks that every run starts from power-on: a second
// run of the same simulator, which may reuse the first run's released
// storage, re-activates rising nets in its first cycle and sees every
// flip-flop cleared.
func TestSimulatorReset(t *testing.T) {
	n, ids := buildAdderStage(t)
	sim, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Run(2, func(c int, in Inputs) {
		in.Set(ids["a"], c == 0)
		in.Set(ids["b"], c == 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	first.Release() // a second release is a no-op
	tr, err := sim.Run(1, func(_ int, in Inputs) { in.Set(ids["a"], true) })
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Activated(0, ids["sum"]) {
		t.Error("after reset the first cycle should re-activate rising nets")
	}
	if value(tr, 0, ids["ffc"]) {
		t.Error("reset should clear FF state")
	}
}

// TestReleasedTraceUnreadable checks that reading a trace after its Release
// panics instead of returning the bits of the run that reused its storage.
func TestReleasedTraceUnreadable(t *testing.T) {
	n, ids := buildAdderStage(t)
	sim, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Run(1, func(_ int, in Inputs) { in.Set(ids["a"], true) })
	if err != nil {
		t.Fatal(err)
	}
	if !a.Activated(0, ids["sum"]) {
		t.Fatal("a rising input should activate sum")
	}
	a.Release()
	b, err := sim.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("Run handed out the released trace")
	}
	defer func() {
		if recover() == nil {
			t.Error("reading a released trace did not panic")
		}
	}()
	a.Activated(0, ids["sum"])
}

func TestBitSet(t *testing.T) {
	b := NewBitSet(130)
	ids := []netlist.GateID{0, 63, 64, 129}
	for _, id := range ids {
		b.Set(id)
	}
	for _, id := range ids {
		if !b.Has(id) {
			t.Errorf("missing %d", id)
		}
	}
	if b.Count() != 4 {
		t.Errorf("count=%d", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 3 {
		t.Error("clear failed")
	}
	c := b.Clone()
	c.Set(64)
	if b.Has(64) {
		t.Error("clone should be independent")
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := &Trace{}
	if err := tr.reset(10, 1); err != nil {
		t.Fatal(err)
	}
	tr.act[3] |= 1
	if !tr.Activated(0, 3) || tr.Activated(0, 4) {
		t.Error("activation lookup wrong")
	}
	if tr.Activated(-1, 3) || tr.Activated(5, 3) {
		t.Error("out-of-range cycles must report false")
	}
	if tr.Cycles() != 1 || tr.NumGates() != 10 || tr.Count(0) != 1 {
		t.Error("cycle, gate or activation count")
	}
}

// TestRunRejectsOversizedTrace checks the MaxTraceBits cap on simulation:
// a stimulus whose trace would exceed it is an error, not an allocation.
func TestRunRejectsOversizedTrace(t *testing.T) {
	n, _ := buildAdderStage(t)
	sim, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(MaxTraceBits/n.NumGates()+1, nil); err == nil {
		t.Error("a trace past MaxTraceBits must be rejected")
	}
	if _, err := sim.Run(-1, nil); err == nil {
		t.Error("a negative cycle count must be rejected")
	}
	if tr, err := sim.Run(MaxTraceBits/n.NumGates(), nil); err != nil || tr.Cycles() != MaxTraceBits/n.NumGates() {
		t.Errorf("a trace at the cap must be accepted: %v", err)
	}
}

func TestVCDRoundTrip(t *testing.T) {
	n, ids := buildAdderStage(t)
	tr := run(t, n,
		[]netlist.GateID{ids["a"]},
		[]netlist.GateID{ids["a"], ids["b"]},
		nil,
		[]netlist.GateID{ids["b"]},
	)
	var buf bytes.Buffer
	if err := WriteVCD(&buf, tr, "halfadder"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVCD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != tr.NumGates() || back.Cycles() != tr.Cycles() {
		t.Fatalf("shape mismatch: %d/%d gates, %d/%d cycles",
			back.NumGates(), tr.NumGates(), back.Cycles(), tr.Cycles())
	}
	for c := 0; c < tr.Cycles(); c++ {
		for g := 0; g < tr.NumGates(); g++ {
			id := netlist.GateID(g)
			if tr.Activated(c, id) != back.Activated(c, id) {
				t.Errorf("cycle %d gate %d mismatch", c, g)
			}
		}
	}
}

func TestVCDRejectsGarbage(t *testing.T) {
	if _, err := ReadVCD(bytes.NewBufferString("$enddefinitions $end\nnot-a-line\n")); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ReadVCD(bytes.NewBufferString("$enddefinitions $end\n#x\n")); err == nil {
		t.Error("expected timestamp error")
	}
	if _, err := ReadVCD(bytes.NewBufferString("$var wire 1 ! g0 $end\n$enddefinitions $end\n0!\n")); err == nil {
		t.Error("value change before timestamp should fail")
	}
}

// vcdOneGate is the header of a one-gate VCD document.
const vcdOneGate = "$var wire 1 ! g0 $end\n$enddefinitions $end\n"

// TestVCDRejectsDecreasingTimestamp checks that a timestamp earlier than
// the one before it is an error, not a change filed under a later cycle.
func TestVCDRejectsDecreasingTimestamp(t *testing.T) {
	if tr, err := ReadVCD(strings.NewReader(vcdOneGate + "#5\n1!\n#2\n0!\n")); err == nil {
		t.Errorf("#5 then #2 accepted: cycle 2 activated %v, cycle 6 activated %v",
			tr.Activated(2, 0), tr.Activated(6, 0))
	}
}

// TestVCDRejectsRepeatedTimestamp checks that a repeated timestamp is an
// error, not a second cycle.
func TestVCDRejectsRepeatedTimestamp(t *testing.T) {
	if tr, err := ReadVCD(strings.NewReader(vcdOneGate + "#3\n1!\n#3\n0!\n")); err == nil {
		t.Errorf("#3 then #3 accepted as %d cycles", tr.Cycles())
	}
}

// TestVCDRejectsOversizedTrace checks the MaxTraceBits cap on the reader: a
// short document whose last timestamp names 20M cycles is an error before
// anything is allocated, and a trace at the cap is accepted.
func TestVCDRejectsOversizedTrace(t *testing.T) {
	if _, err := ReadVCD(strings.NewReader(vcdOneGate + "#0\n1!\n#20000000\n")); err == nil {
		t.Error("a 20M-cycle trace must exceed MaxTraceBits")
	}
	tr, err := ReadVCD(strings.NewReader(vcdOneGate + "#0\n1!\n#4194303\n"))
	if err != nil || tr.Cycles() != MaxTraceBits {
		t.Errorf("a trace at the cap must be accepted: %v", err)
	}
}

// TestVCDRejectsLongIdentifier checks that an identifier too long to name a
// gate is an error: "1111111111" decodes past int64 to a negative index.
func TestVCDRejectsLongIdentifier(t *testing.T) {
	if _, err := ReadVCD(strings.NewReader(vcdOneGate + "#0\n11111111111\n")); err == nil {
		t.Error("a 10-character identifier must be rejected")
	}
}

func TestIDCodeRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		i := int(raw)
		got, ok := parseIDCode(idCode(i))
		return ok && got == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
