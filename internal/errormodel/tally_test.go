package errormodel

import (
	"context"
	"math"
	"reflect"
	"testing"

	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/isa"
	"tsperr/internal/mibench"
)

// TestTallyMatchesObserverPath is the standing oracle of the estimation
// path's one-pass simulation. For all 12 programs and scenarios 0-7, the
// profile and features of a tally run must equal the ones RunBatched,
// Profile.ObserveBatch and ScenarioFeatures.ObserveBatch build from the
// DynInst stream: the instruction, block and edge counts, the per
// instruction counts and results, and the five failure-probability sums bit
// for bit. It checks this under the nominal datapath model and under the
// model of a machine retargeted to a higher frequency ratio, where the
// adder rows' first nonzero depth, the popcount gate's threshold, differs.
func TestTallyMatchesObserverPath(t *testing.T) {
	ctx := context.Background()
	m := testMachine(t)
	nominal := trainedModel(ctx, t, m)
	opts := m.Opts
	opts.WorkingRatio = 1.3
	fast, err := NewMachineWithScalesContext(ctx, opts, m.Scales())
	if err != nil {
		t.Fatal(err)
	}
	retargeted := trainedModel(ctx, t, fast)
	if a, b := nominal.FailTable().Min[isa.OpAdd], retargeted.FailTable().Min[isa.OpAdd]; a == b {
		t.Fatalf("the retargeted adder row starts at depth %d, like the nominal one", a)
	}

	cfgCPU := cpu.DefaultConfig()
	cfgCPU.SkipToggles = true
	for _, dp := range []*DatapathModel{nominal, retargeted} {
		for _, bm := range mibench.All() {
			g, err := cfg.Build(bm.Prog)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 8; s++ {
				machine := func() *cpu.CPU {
					c, err := cpu.New(bm.Prog, cfgCPU)
					if err != nil {
						t.Fatal(err)
					}
					if err := bm.Setup(c, s); err != nil {
						t.Fatal(err)
					}
					return c
				}
				c := machine()
				wantPr := cfg.NewProfile(g)
				wantF, _ := NewFeatureCollector(len(bm.Prog.Insts), dp)
				st, err := c.RunBatched(ctx, func(ds []cpu.DynInst) { wantPr.ObserveBatch(ds); wantF.ObserveBatch(ds) })
				c.Release()
				if err != nil {
					t.Fatal(err)
				}
				wantPr.InstCount = st.Instructions
				wantPr.Finish()

				c = machine()
				tally, tst, err := c.RunTally(ctx, dp.FailTable())
				c.Release()
				if err != nil || tst != st {
					t.Fatalf("%s/%d: tally run %+v, %v; batched run %+v", bm.Name, s, tst, err, st)
				}
				gotPr := cfg.FromTally(g, tally, tst.Instructions)
				gotF := FeaturesFromTally(tally)

				if gotPr.InstCount != wantPr.InstCount || !reflect.DeepEqual(gotPr.ExecCount, wantPr.ExecCount) ||
					!reflect.DeepEqual(gotPr.EdgeCount, wantPr.EdgeCount) {
					t.Fatalf("%s/%d: profile %d, %v, %v; observer path %d, %v, %v", bm.Name, s,
						gotPr.InstCount, gotPr.ExecCount, gotPr.EdgeCount,
						wantPr.InstCount, wantPr.ExecCount, wantPr.EdgeCount)
				}
				if !reflect.DeepEqual(gotF.Count, wantF.Count) || !reflect.DeepEqual(gotF.Results, wantF.Results) {
					t.Fatalf("%s/%d: feature counts or results diverge", bm.Name, s)
				}
				sums := func(f *ScenarioFeatures) [][]float64 {
					return [][]float64{f.sumFailC, f.sumFailC2, f.sumFailC3, f.sumFailC4, f.sumFailE}
				}
				for k, got := range sums(gotF) {
					want := sums(wantF)[k]
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%d: sum %d of instruction %d is %v, observer path %v",
								bm.Name, s, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
