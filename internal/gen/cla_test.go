package gen

import (
	"testing"
	"testing/quick"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/dta"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

func newTestEngine(n *netlist.Netlist, m *variation.Model) (*sta.Engine, error) {
	return sta.NewEngine(n, m, 2000, cell.SigmaRel, 1)
}

// claSum returns a + b + cin as the adder computes it in one cycle.
func claSum(t *testing.T, sim *activity.Sim, ad *AdderNet, a, b uint32, cin bool) uint32 {
	t.Helper()
	tr, err := sim.Run(1, func(_ int, in activity.Inputs) {
		in.SetWord(ad.A[:], uint64(a))
		in.SetWord(ad.B[:], uint64(b))
		in.Set(ad.Cin, cin)
	})
	if err != nil {
		t.Fatal(err)
	}
	return word(tr, ad.N, 0, ad.Sum[:])
}

func TestCLAAdderFunctional(t *testing.T) {
	ad := CLAAdder()
	if err := ad.N.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := activity.Compile(ad.N)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b uint32
		cin  bool
	}{
		{0, 0, false}, {1, 1, false}, {0xFFFFFFFF, 1, false},
		{0xFFFFFFFF, 0xFFFFFFFF, true}, {12345, 67890, false},
		{0x80000000, 0x7FFFFFFF, true},
	}
	for _, c := range cases {
		want := c.a + c.b
		if c.cin {
			want++
		}
		if got := claSum(t, sim, ad, c.a, c.b, c.cin); got != want {
			t.Errorf("cla(%x,%x,%v) = %x, want %x", c.a, c.b, c.cin, got, want)
		}
	}
}

func TestCLAAdderProperty(t *testing.T) {
	ad := CLAAdder()
	sim, err := activity.Compile(ad.N)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint32) bool {
		return claSum(t, sim, ad, a, b, false) == a+b
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCLAShorterCriticalPath(t *testing.T) {
	model, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ripple := Adder()
	cla := CLAAdder()
	eR, err := newTestEngine(ripple.N, model)
	if err != nil {
		t.Fatal(err)
	}
	eC, err := newTestEngine(cla.N, model)
	if err != nil {
		t.Fatal(err)
	}
	dR := eR.MaxDelayNominal()
	dC := eC.MaxDelayNominal()
	if dC >= dR/2 {
		t.Errorf("CLA critical path %v should be well under half the ripple's %v", dC, dR)
	}
}

func TestCLALessOperandDependentDelay(t *testing.T) {
	// The activated critical-path *delay* of a CLA varies much less between
	// short-carry and full-carry operands than the ripple adder's: the
	// lookahead network bounds the carry depth. This is the depth-delay
	// profile ablation DESIGN.md calls out.
	model, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const period = 2600.0
	spread := func(ad *AdderNet) float64 {
		e, err := sta.NewEngine(ad.N, model, period, cell.SigmaRel, 1)
		if err != nil {
			t.Fatal(err)
		}
		an := dta.New(e, 8)
		ops := [][2]uint32{{0, 0}, {1, 1}, {0, 0}, {0xFFFFFFFF, 1}}
		tr := simulate(t, ad.N, len(ops), func(c int, in activity.Inputs) {
			in.SetWord(ad.A[:], uint64(ops[c][0]))
			in.SetWord(ad.B[:], uint64(ops[c][1]))
		})
		eps := ad.N.Endpoints(0)
		shortDTS, ok1 := an.StageDTS(eps, 1, tr)
		longDTS, ok2 := an.StageDTS(eps, 3, tr)
		if !ok1 || !ok2 {
			t.Fatal("expected activated paths in both cycles")
		}
		// Activated path delay = -DTS, the form being period-free.
		return longDTS.Mean / shortDTS.Mean
	}
	r := spread(Adder())
	c := spread(CLAAdder())
	if c >= r {
		t.Errorf("CLA delay spread %v should be below ripple's %v", c, r)
	}
	if c > 8 {
		t.Errorf("CLA activated delay spread implausibly wide: %v", c)
	}
}
