package netlist

import (
	"slices"
	"strings"
	"testing"

	"tsperr/internal/cell"
)

// buildToy returns a 2-stage netlist:
// stage 0: inputs a,b -> xor (sum) -> ff0 (data), and -> ff1 (control)
// stage 1: ff0,ff1 -> or -> ff2
func buildToy() (*Netlist, map[string]GateID) {
	n := New("toy", 2)
	ids := map[string]GateID{}
	ids["a"] = n.Add(cell.INPUT, "a", 0)
	ids["b"] = n.Add(cell.INPUT, "b", 0)
	ids["xor"] = n.Add(cell.XOR2, "xor", 0, ids["a"], ids["b"])
	ids["and"] = n.Add(cell.AND2, "and", 0, ids["a"], ids["b"])
	ids["ff0"] = n.Add(cell.DFF, "ff0", 0, ids["xor"])
	ids["ff1"] = n.Add(cell.DFF, "ff1", 0, ids["and"])
	ids["or"] = n.Add(cell.OR2, "or", 1, ids["ff0"], ids["ff1"])
	ids["ff2"] = n.Add(cell.DFF, "ff2", 1, ids["or"])
	n.MarkData(ids["ff0"])
	return n, ids
}

func TestValidateAndTopo(t *testing.T) {
	n, ids := buildToy()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	topo, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[GateID]int{}
	for i, id := range topo {
		pos[id] = i
	}
	if len(topo) != n.NumGates() {
		t.Fatalf("topo covers %d of %d gates", len(topo), n.NumGates())
	}
	// xor must come after its inputs.
	if pos[ids["xor"]] < pos[ids["a"]] || pos[ids["xor"]] < pos[ids["b"]] {
		t.Error("topo order violates dependency")
	}
	// or must come after the flip-flops that feed it.
	if pos[ids["or"]] < pos[ids["ff0"]] || pos[ids["or"]] < pos[ids["ff1"]] {
		t.Error("or scheduled before its FF sources")
	}
}

func TestEndpointsAndClasses(t *testing.T) {
	n, ids := buildToy()
	eps0 := n.Endpoints(0)
	if len(eps0) != 2 {
		t.Fatalf("stage 0 endpoints = %d, want 2", len(eps0))
	}
	data := n.DataEndpoints(0)
	if len(data) != 1 || data[0] != ids["ff0"] {
		t.Errorf("data endpoints = %v", data)
	}
	ctrl := n.ControlEndpoints(0)
	if len(ctrl) != 1 || ctrl[0] != ids["ff1"] {
		t.Errorf("control endpoints = %v", ctrl)
	}
	if len(n.Endpoints(1)) != 1 {
		t.Error("stage 1 should have one endpoint")
	}
}

func TestFanout(t *testing.T) {
	n, ids := buildToy()
	fo := n.Fanout(ids["a"])
	if len(fo) != 2 {
		t.Fatalf("fanout of a = %v", fo)
	}
	if len(n.Fanout(ids["ff2"])) != 0 {
		t.Error("ff2 should have no fanout")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New("cyc", 1)
	a := n.Add(cell.INPUT, "a", 0)
	// Build a cycle through two combinational gates using a placeholder,
	// then patch the fanin to create or1 -> and1 -> or1.
	and1 := n.Add(cell.AND2, "and1", 0, a, a)
	or1 := n.Add(cell.OR2, "or1", 0, and1, a)
	n.Gate(and1).Fanin[1] = or1
	n.dirty = true
	err := n.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// A feedback loop through a flip-flop is legal (it is a state machine).
	n := New("fsm", 1)
	seed := n.Add(cell.CONST0, "seed", 0)
	inv := n.Add(cell.INV, "inv", 0, seed) // placeholder fanin patched below
	ff := n.Add(cell.DFF, "ff", 0, inv)
	n.Gate(inv).Fanin[0] = ff
	n.dirty = true
	if err := n.Validate(); err != nil {
		t.Fatalf("FF feedback loop should validate: %v", err)
	}
}

func TestAddPanicsOnBadArity(t *testing.T) {
	n := New("bad", 1)
	a := n.Add(cell.INPUT, "a", 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong arity")
		}
	}()
	n.Add(cell.AND2, "and", 0, a) // AND2 needs 2 inputs
}

func TestValidateStageRange(t *testing.T) {
	n := New("stage", 1)
	n.Add(cell.INPUT, "a", 5)
	if err := n.Validate(); err == nil {
		t.Error("out-of-range stage should fail validation")
	}
}

// TestSortPathsByDelay sorts one set of paths from several input orders:
// longest delay first, then by endpoint, then by the whole gate sequence,
// so every order gives the same result.
func TestSortPathsByDelay(t *testing.T) {
	want := []Path{
		{Gates: []GateID{1}, Endpoint: 7, NominalDelay: 120},
		{Gates: []GateID{2}, Endpoint: 7, NominalDelay: 120},
		{Gates: []GateID{1, 4, 6}, Endpoint: 7, NominalDelay: 90},
		{Gates: []GateID{1, 5}, Endpoint: 7, NominalDelay: 90},
		{Gates: []GateID{1, 5, 2}, Endpoint: 7, NominalDelay: 90},
		{Gates: []GateID{1, 5, 3}, Endpoint: 7, NominalDelay: 90},
		{Gates: []GateID{0, 9}, Endpoint: 8, NominalDelay: 90},
		{Gates: []GateID{3}, Endpoint: 9, NominalDelay: 50},
	}
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	for trial := 0; trial < 24; trial++ {
		perm[trial%7], perm[trial%7+1] = perm[trial%7+1], perm[trial%7]
		ps := make([]Path, len(want))
		for i, j := range perm {
			ps[i] = want[j]
		}
		SortPathsByDelay(ps)
		for i := range ps {
			if ps[i].Endpoint != want[i].Endpoint || !slices.Equal(ps[i].Gates, want[i].Gates) {
				t.Fatalf("input order %v sorts to %v, want %v", perm, ps, want)
			}
		}
	}
}
