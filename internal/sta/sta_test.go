package sta

import (
	"errors"
	"math"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/variation"
)

func model(t *testing.T) *variation.Model {
	t.Helper()
	m, err := variation.NewModel(2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildChain returns a 1-stage netlist: in -> inv1 -> inv2 -> ... -> invN -> ff,
// plus a short side path in -> buf -> ff2.
func buildChain(n int) (*netlist.Netlist, netlist.GateID, netlist.GateID) {
	nl := netlist.New("chain", 1)
	in := nl.Add(cell.INPUT, "in", 0)
	prev := in
	for i := 0; i < n; i++ {
		prev = nl.Add(cell.INV, "inv", 0, prev)
	}
	ff := nl.Add(cell.DFF, "ff", 0, prev)
	buf := nl.Add(cell.BUF, "buf", 0, in)
	ff2 := nl.Add(cell.DFF, "ff2", 0, buf)
	return nl, ff, ff2
}

func TestMaxDelayNominal(t *testing.T) {
	nl, _, _ := buildChain(5)
	e, err := NewEngine(nl, model(t), 1000, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 5*cell.INV.Delay() + cell.Setup
	if got := e.MaxDelayNominal(); math.Abs(got-want) > 1e-9 {
		t.Errorf("max delay = %v, want %v", got, want)
	}
}

func TestDelayScale(t *testing.T) {
	nl, _, _ := buildChain(3)
	e, _ := NewEngine(nl, model(t), 1000, cell.SigmaRel, 2)
	want := 2*3*cell.INV.Delay() + cell.Setup
	if got := e.MaxDelayNominal(); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled max delay = %v, want %v", got, want)
	}
	if _, err := NewEngine(nl, model(t), 1000, cell.SigmaRel, 0); err == nil {
		t.Error("zero delay scale must be rejected")
	}
}

func TestCriticalPathsOrderAndContent(t *testing.T) {
	nl, ff, ff2 := buildChain(4)
	e, _ := NewEngine(nl, model(t), 1000, cell.SigmaRel, 1)
	ps := e.CriticalPaths(ff, 4)
	if len(ps) != 1 {
		t.Fatalf("chain endpoint has exactly one path, got %d", len(ps))
	}
	// Path = in, inv*4 (source first).
	if len(ps[0].Gates) != 5 {
		t.Errorf("path length = %d, want 5", len(ps[0].Gates))
	}
	if nl.Gate(ps[0].Gates[0]).Kind != cell.INPUT {
		t.Error("path must start at a source")
	}
	want := 4*cell.INV.Delay() + cell.Setup
	if math.Abs(ps[0].NominalDelay-want) > 1e-9 {
		t.Errorf("nominal delay = %v, want %v", ps[0].NominalDelay, want)
	}
	short := e.CriticalPaths(ff2, 4)
	if len(short) != 1 || short[0].NominalDelay >= ps[0].NominalDelay {
		t.Error("side path should be shorter")
	}
}

// buildDiamond returns a netlist with two reconvergent paths of different
// length into one endpoint: in -> (xor chain of 3) and (buf) -> or -> ff.
func buildDiamond() (*netlist.Netlist, netlist.GateID) {
	nl := netlist.New("diamond", 1)
	a := nl.Add(cell.INPUT, "a", 0)
	b := nl.Add(cell.INPUT, "b", 0)
	x1 := nl.Add(cell.XOR2, "x1", 0, a, b)
	x2 := nl.Add(cell.XOR2, "x2", 0, x1, b)
	short := nl.Add(cell.BUF, "buf", 0, a)
	or := nl.Add(cell.OR2, "or", 0, x2, short)
	ff := nl.Add(cell.DFF, "ff", 0, or)
	return nl, ff
}

func TestKCriticalEnumeratesInOrder(t *testing.T) {
	nl, ff := buildDiamond()
	e, _ := NewEngine(nl, model(t), 1000, cell.SigmaRel, 1)
	ps := e.CriticalPaths(ff, 10)
	if len(ps) < 3 {
		t.Fatalf("expected at least 3 distinct paths, got %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].NominalDelay > ps[i-1].NominalDelay+1e-9 {
			t.Error("paths not in decreasing delay order")
		}
	}
	// Longest: a -> x1 -> x2 -> or (delay 2*XOR+OR) or b -> x1 -> x2 -> or.
	want := 2*cell.XOR2.Delay() + cell.OR2.Delay() + cell.Setup
	if math.Abs(ps[0].NominalDelay-want) > 1e-9 {
		t.Errorf("most critical delay = %v, want %v", ps[0].NominalDelay, want)
	}
}

func TestPathSlackAndDelayForms(t *testing.T) {
	nl, ff := buildDiamond()
	e, _ := NewEngine(nl, model(t), 500, cell.SigmaRel, 1)
	p := e.CriticalPaths(ff, 1)[0]
	d := e.PathDelay(p)
	s := e.PathSlack(p)
	if math.Abs((d.Mean+s.Mean)-500) > 1e-9 {
		t.Errorf("delay+slack should equal clock period: %v + %v", d.Mean, s.Mean)
	}
	if math.Abs(d.Std()-s.Std()) > 1e-12 {
		t.Error("slack spread must equal delay spread")
	}
	if d.Std() == 0 {
		t.Error("path delay should carry variation")
	}
}

func TestStatMinProperties(t *testing.T) {
	m := model(t)
	a := m.Canonical(0.1, 0.1, 100, 0.05)
	b := m.Canonical(0.9, 0.9, 110, 0.05)
	c := m.Canonical(0.5, 0.5, 120, 0.05)
	mn, err := StatMin([]variation.Canon{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if mn.Mean > 100 {
		t.Errorf("min mean %v should be below the smallest operand mean", mn.Mean)
	}
	if mn.Mean < 90 {
		t.Errorf("min mean %v implausibly low", mn.Mean)
	}
	single, err := StatMin([]variation.Canon{a})
	if err != nil {
		t.Fatal(err)
	}
	if single.Mean != a.Mean {
		t.Error("StatMin of one element should be identity")
	}
}

// Regression: an empty set used to panic; it must return ErrEmptySet so
// sparse traces cannot crash the estimation pipeline.
func TestStatMinEmptySetError(t *testing.T) {
	if _, err := StatMin(nil); !errors.Is(err, ErrEmptySet) {
		t.Errorf("StatMin(nil) = %v, want ErrEmptySet", err)
	}
	if _, err := StatMin([]variation.Canon{}); !errors.Is(err, ErrEmptySet) {
		t.Errorf("StatMin(empty) = %v, want ErrEmptySet", err)
	}
}

func TestStatMinOrderInsensitiveApprox(t *testing.T) {
	m := model(t)
	forms := []variation.Canon{
		m.Canonical(0.2, 0.2, 100, 0.06),
		m.Canonical(0.8, 0.8, 105, 0.06),
		m.Canonical(0.2, 0.8, 103, 0.06),
		m.Canonical(0.8, 0.2, 108, 0.06),
	}
	rev := []variation.Canon{forms[3], forms[2], forms[1], forms[0]}
	a, err := StatMin(forms)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StatMin(rev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Mean-b.Mean) > 0.5 || math.Abs(a.Std()-b.Std()) > 0.5 {
		t.Errorf("greedy min should be nearly order-insensitive: %v/%v vs %v/%v",
			a.Mean, a.Std(), b.Mean, b.Std())
	}
}

func TestMaxDelayPercentileOrdering(t *testing.T) {
	nl, _ := buildDiamond()
	e, _ := NewEngine(nl, model(t), 1000, cell.SigmaRel, 1)
	p50 := e.MaxDelayPercentile(0.5, 4)
	p99 := e.MaxDelayPercentile(0.99, 4)
	nom := e.MaxDelayNominal()
	if !(p99 > p50) {
		t.Errorf("p99 %v should exceed p50 %v", p99, p50)
	}
	// The statistical max at median should be at or above the nominal
	// longest path (max of several variables shifts right).
	if p50 < nom-1 {
		t.Errorf("p50 %v unexpectedly far below nominal %v", p50, nom)
	}
}

func TestWorstSlackNominal(t *testing.T) {
	nl, _, _ := buildChain(10)
	period := 10*cell.INV.Delay() + cell.Setup + 25
	e, _ := NewEngine(nl, model(t), period, cell.SigmaRel, 1)
	if got := e.WorstSlackNominal(0); math.Abs(got-25) > 1e-9 {
		t.Errorf("worst slack = %v, want 25", got)
	}
}

func TestEndpointSlackForms(t *testing.T) {
	nl, ff := buildDiamond()
	e, _ := NewEngine(nl, model(t), 400, cell.SigmaRel, 1)
	forms := e.EndpointSlackForms(0, 4)
	if len(forms[ff]) < 3 {
		t.Fatalf("expected several slack forms for the endpoint, got %d", len(forms[ff]))
	}
	// Most critical first: slack of first form must be the smallest mean.
	for i := 1; i < len(forms[ff]); i++ {
		if forms[ff][i].Mean < forms[ff][0].Mean-1e-9 {
			t.Error("slack forms not ordered most-critical first")
		}
	}
}
