package tsim

import (
	"math"
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/dta"
	"tsperr/internal/gdta"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

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

func adderFixture(t *testing.T, period float64) (*Simulator, *gdta.Analyzer, *dta.Analyzer, *activity.Trace, *gen.AdderNet) {
	t.Helper()
	ad := gen.Adder()
	m, err := variation.NewModel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sta.NewEngine(ad.N, m, period, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := gdta.New(e)
	if err != nil {
		t.Fatal(err)
	}
	pa := dta.New(e, 8)
	ops := [][2]uint32{{0, 0}, {0xFFFFFFFF, 1}, {3, 1}, {0x0F0F, 0xF0F1}}
	tr := simulate(t, ad.N, len(ops), func(c int, in activity.Inputs) {
		in.SetWord(ad.A[:], uint64(ops[c][0]))
		in.SetWord(ad.B[:], uint64(ops[c][1]))
		in.Set(ad.Cin, false)
	})
	return ts, ga, pa, tr, ad
}

func TestTimingSimMatchesGraphDTANominal(t *testing.T) {
	ts, ga, _, tr, ad := adderFixture(t, 2500)
	eps := ad.N.Endpoints(0)
	for cyc := 1; cyc < tr.Cycles(); cyc++ {
		res := ts.Cycle(eps, cyc, tr)
		form, ok := ga.StageDTS(eps, cyc, tr)
		if res.Active != ok {
			t.Fatalf("cycle %d: activity disagreement", cyc)
		}
		if !ok {
			continue
		}
		if math.Abs(res.Slack-form.Mean) > 1e-6 {
			t.Errorf("cycle %d: tsim slack %v vs graph-DTA mean %v", cyc, res.Slack, form.Mean)
		}
	}
}

func TestDeterministicVerdictHidesProbability(t *testing.T) {
	// Pick a period slightly above the full-chain nominal delay: the timing
	// simulation says "no violation", while SSTA assigns a substantial
	// failure probability — the paper's argument for statistical DTA.
	ts, _, pa, tr, ad := adderFixture(t, 2500)
	eps := ad.N.Endpoints(0)
	nominal := ts.Cycle(eps, 1, tr) // full carry chain cycle
	if !nominal.Active {
		t.Fatal("expected activity")
	}
	// Retune the clock to sit 1 sigma above the nominal critical delay.
	form, ok := pa.StageDTS(eps, 1, tr)
	if !ok {
		t.Fatal("expected DTS")
	}
	criticalDelay := -form.Mean // activated path delay incl. setup
	period := criticalDelay + form.Std()
	m, _ := variation.NewModel(2, 0.5)
	e2, err := sta.NewEngine(ad.N, m, period, cell.SigmaRel, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts2, _ := New(e2)
	pa2 := dta.New(e2, 8)
	res := ts2.Cycle(eps, 1, tr)
	if res.Violation {
		t.Fatalf("deterministic sim should pass at +1 sigma: slack %v", res.Slack)
	}
	form2, _ := pa2.StageDTS(eps, 1, tr)
	p := dta.ErrorProbability(form2.Mean+period, form2.Std())
	if p < 0.05 {
		t.Errorf("SSTA should assign a visible failure probability, got %v", p)
	}
}

func TestCountViolations(t *testing.T) {
	// At an aggressive period the full-chain cycle must violate.
	ts, _, _, tr, ad := adderFixture(t, 1500)
	eps := ad.N.Endpoints(0)
	n := ts.CountViolations(eps, tr)
	if n == 0 {
		t.Error("expected at least one deterministic violation at 1500 ps")
	}
	// At a generous period, none.
	ts2, _, _, tr2, ad2 := adderFixture(t, 4000)
	if m := ts2.CountViolations(ad2.N.Endpoints(0), tr2); m != 0 {
		t.Errorf("expected no violations at 4000 ps, got %d", m)
	}
}

func TestQuietCycleInactive(t *testing.T) {
	ts, _, _, tr, ad := adderFixture(t, 2500)
	// Append a quiet cycle by reusing the trace beyond its end.
	res := ts.Cycle(ad.N.Endpoints(0), tr.Cycles()+5, tr)
	if res.Active || res.Violation {
		t.Error("out-of-trace cycle must be inactive")
	}
}
