package montecarlo_test

import (
	"context"
	"math"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/montecarlo"
)

// requireWalkMatchesInterpreter runs spec through Run and, at chunkSize,
// through RunSharded, and requires both to equal the interpreter-trial
// oracle bit for bit: every count and the last trial's instruction count.
func requireWalkMatchesInterpreter(t *testing.T, name string, spec montecarlo.Spec, chunkSize int) {
	t.Helper()
	same := func(path string, got, want *montecarlo.Result) {
		t.Helper()
		if got.Instructions != want.Instructions {
			t.Errorf("%s %s: %d instructions, the interpreter %d", name, path, got.Instructions, want.Instructions)
		}
		for i := range want.Counts {
			if math.Float64bits(got.Counts[i]) != math.Float64bits(want.Counts[i]) {
				t.Fatalf("%s %s: trial %d counts %v errors, the interpreter %v", name, path, i, got.Counts[i], want.Counts[i])
			}
		}
	}
	run, err := montecarlo.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := montecarlo.OracleRun(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("Run", run, want)

	sharded, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want, err = montecarlo.OracleRun(spec, chunkSize); err != nil {
		t.Fatal(err)
	}
	same("RunSharded", sharded.Result, want)
}

func TestWalkMatchesInterpreterOnFixture(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 3)
	for _, seed := range []uint64{1, 7} {
		spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 300, Seed: seed}
		requireWalkMatchesInterpreter(t, "fixture", spec, 64)
	}
	// Fewer trials than scenarios: only the visited scenarios are recorded.
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 2, Seed: 3}
	requireWalkMatchesInterpreter(t, "fixture", spec, 64)
}

// TestWalkMatchesInterpreterOnMibench compares the walk with the
// interpreter on every Table 2 program at 4 scenarios, each scenario set up
// with its own dataset and its conditionals from the analytic pipeline.
func TestWalkMatchesInterpreterOnMibench(t *testing.T) {
	eng, err := harness.New(cell.OperatingCondition{}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range mibench.All() {
		rep, err := eng.Analyze(context.Background(), b.Name, 4, core.AnalyzeOpts{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		conds := make([]*errormodel.Conditionals, len(rep.Scenarios))
		for i := range rep.Scenarios {
			conds[i] = rep.Scenarios[i].Cond
		}
		spec := montecarlo.Spec{Prog: b.Prog, Setup: b.Setup, Cond: conds, Trials: 24, Seed: 1}
		requireWalkMatchesInterpreter(t, b.Name, spec, 8)
	}
}
