package sta_test

import (
	"math"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/gen"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

// TestCornerIsATimeScale pins the V/T law's seam: a condition multiplies
// every delay of the library by its DelayFactor, the flip-flop's setup time
// included. An engine whose delays all run at exactly twice nominal's (a
// delay factor of 2, sigma factor 1) must return, at every endpoint of the
// five units, the paths nominal returns, with every path delay and every
// slack at period 2T exactly twice nominal's at T, bit for bit. A setup
// time left at its nominal 35 ps misses the doubling by 35 ps.
func TestCornerIsATimeScale(t *testing.T) {
	opts := errormodel.DefaultOptions()
	model, err := variation.NewModel(opts.VariationLevels, opts.CorrShare)
	if err != nil {
		t.Fatal(err)
	}
	const period, scale = 1400.0, 0.7 // a scale off the power-of-two grid
	for _, n := range []*netlist.Netlist{
		gen.Control().N, gen.Adder().N, gen.Shifter().N, gen.Logic().N, gen.Multiplier().N,
	} {
		nom, err := sta.NewEngineFactors(n, model, period, opts.SigmaRel, scale, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := sta.NewEngineFactors(n, model, 2*period, opts.SigmaRel, scale, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if nom.Setup() != cell.Setup || slow.Setup() != 2*cell.Setup {
			t.Fatalf("%s: setup times %v and %v, want %v and %v", n.Name, nom.Setup(), slow.Setup(), cell.Setup, 2*cell.Setup)
		}
		for _, ep := range endpoints(n) {
			want, got := nom.CriticalPaths(ep, opts.KPaths), slow.CriticalPaths(ep, opts.KPaths)
			if len(got) != len(want) {
				t.Fatalf("%s ep %d: %d paths at twice the delays, %d at nominal", n.Name, ep, len(got), len(want))
			}
			for i := range want {
				doubled := want[i]
				doubled.NominalDelay *= 2
				if !samePaths(got[i:i+1], []netlist.Path{doubled}) {
					t.Fatalf("%s ep %d path %d: %v at twice the delays, want %v", n.Name, ep, i, got[i], doubled)
				}
				if d, w := slow.PathDelay(got[i]), nom.PathDelay(want[i]); !sameCanon(d, twice(w)) {
					t.Fatalf("%s ep %d path %d: delay %v, want twice %v", n.Name, ep, i, d, w)
				}
				if s, w := slow.PathSlack(got[i]), nom.PathSlack(want[i]); !sameCanon(s, twice(w)) {
					t.Fatalf("%s ep %d path %d: slack %v, want twice %v", n.Name, ep, i, s, w)
				}
			}
		}
	}
}

// twice returns 2c, which is exact in binary floating point.
func twice(c variation.Canon) variation.Canon {
	out := variation.Canon{Mean: 2 * c.Mean, Rand: 2 * c.Rand, Sens: make([]float64, len(c.Sens))}
	for i, s := range c.Sens {
		out.Sens[i] = 2 * s
	}
	return out
}

// TestSetupDeratesWithTheCondition checks the accessor every endpoint
// charge reads: cell.Setup times the condition's DelayFactor, exactly
// cell.Setup at nominal.
func TestSetupDeratesWithTheCondition(t *testing.T) {
	for _, cond := range []cell.OperatingCondition{{}, offNominal, {VoltageV: 1.0, TempC: 85}} {
		e := units(t, cond)[1]
		if want := cell.Setup * cond.DelayFactor(); math.Float64bits(e.Setup()) != math.Float64bits(want) {
			t.Errorf("%v: setup %v, want %v", cond, e.Setup(), want)
		}
	}
}
