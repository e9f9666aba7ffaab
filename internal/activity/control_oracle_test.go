package activity_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/dta"
	"tsperr/internal/errormodel"
	"tsperr/internal/gen"
	"tsperr/internal/isa"
	"tsperr/internal/mibench"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
)

// sameTrace fails the test at the first activation bit where got and want
// differ.
func sameTrace(t *testing.T, label string, got, want *activity.Trace) {
	t.Helper()
	if got.Cycles() != want.Cycles() || got.NumGates() != want.NumGates() {
		t.Fatalf("%s: trace is %d gates × %d cycles, oracle %d × %d",
			label, got.NumGates(), got.Cycles(), want.NumGates(), want.Cycles())
	}
	for c := 0; c < got.Cycles(); c++ {
		for g := 0; g < got.NumGates(); g++ {
			id := netlist.GateID(g)
			if got.Activated(c, id) != want.Activated(c, id) {
				t.Fatalf("%s: cycle %d gate %d: activated %v, oracle %v",
					label, c, g, got.Activated(c, id), want.Activated(c, id))
			}
		}
	}
}

// TestSimMatchesOracleOnControlStreams compares the compiled control
// network with the per-cycle oracle on random streams of 1-60 instructions
// with random EX results, drained through the pipeline as a control
// stimulus is. Half the streams also toggle the stall and flush inputs at
// random, which drive the instruction register's hold loops.
func TestSimMatchesOracleOnControlStreams(t *testing.T) {
	c := gen.Control()
	sim, err := activity.Compile(c.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := numeric.NewRNG(20)
	streams := 1000
	if testing.Short() {
		streams = 100
	}
	for s := 0; s < streams; s++ {
		n := 1 + rng.Intn(60)
		cycles := n + cpu.NumStages
		words := make([]uint32, n)
		for i := range words {
			in := isa.Inst{Op: isa.Op(rng.Intn(int(isa.NumOps))),
				Rd: uint8(rng.Intn(32)), Rs1: uint8(rng.Intn(32)), Rs2: uint8(rng.Intn(32)),
				Imm: int32(rng.Intn(1<<12)) - 1<<11}
			words[i] = in.Encode()
		}
		results := make([]uint64, cycles)
		hazards := make([][2]bool, cycles)
		for i := range results {
			results[i] = rng.Uint64() & 0xFFFFFFFF
			if s%2 == 1 {
				hazards[i] = [2]bool{rng.Float64() < 0.2, rng.Float64() < 0.1}
			}
		}
		inputs := func(t int, in activity.Inputs) {
			if t < n {
				in.SetWord(c.Instr[:], uint64(words[t]))
			}
			in.SetWord(c.ExResult[:], results[t])
			in.Set(c.Stall, hazards[t][0])
			in.Set(c.Flush, hazards[t][1])
		}
		got, err := sim.Run(cycles, inputs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := activity.OracleTrace(c.N, cycles, inputs)
		if err != nil {
			t.Fatal(err)
		}
		sameTrace(t, "control stream", got, want)
	}
}

// oracleCharacterize is the control characterization of Section 4 driven by
// the per-cycle oracle: the serial per-block loop over incoming edges and
// the flushed-state sequence, one oracle simulation per stimulus, and the
// control-endpoint instruction DTS of each queried position.
func oracleCharacterize(t *testing.T, m *errormodel.Machine, g *cfg.Graph, pr *cfg.Profile, results []uint32) *errormodel.ControlChar {
	t.Helper()
	const window = cpu.NumStages // the predecessor prefix of a stimulus
	ctrlSets := m.CtrlDTA.StageSets(func(g *netlist.Gate) bool { return !g.Data })
	fails := func(seq []isa.Inst, seqIdx []int, positions []int) []float64 {
		tr, err := activity.OracleTrace(m.Ctrl.N, len(seq)+cpu.NumStages, func(c int, in activity.Inputs) {
			if c < len(seq) {
				in.SetWord(m.Ctrl.Instr[:], uint64(seq[c].Encode()))
			}
			if k := c - cpu.StageEX; k >= 0 && k < len(seq) && seqIdx[k] >= 0 {
				in.SetWord(m.Ctrl.ExResult[:], uint64(results[seqIdx[k]]))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(positions))
		for i, p := range positions {
			if form, ok := m.CtrlDTA.InstDTSSets(p, tr, ctrlSets, m.WorkingPeriodPs); ok {
				out[i] = dta.ErrorProbability(form)
			}
		}
		return out
	}
	cc := &errormodel.ControlChar{
		Fail:      make([][]float64, len(g.Blocks)),
		FailFlush: make([][]float64, len(g.Blocks)),
	}
	for b := range g.Blocks {
		blk := &g.Blocks[b]
		n := blk.NumInsts()
		cc.Fail[b] = make([]float64, n)
		cc.FailFlush[b] = make([]float64, n)
		if pr.ExecCount[b] == 0 {
			continue
		}
		cc.TrainedBlocks++
		type edge struct {
			weight float64
			seq    []isa.Inst
			seqIdx []int
		}
		var edges []edge
		var mass float64
		for _, e := range pr.IncomingEdges(b) {
			w := pr.ActivationProb(e)
			if w <= 0 {
				continue
			}
			mass += w
			pred := &g.Blocks[e.From]
			var ed edge
			for i := max(pred.End-window, pred.Start); i < pred.End; i++ {
				ed.seq = append(ed.seq, g.Prog.Insts[i])
				ed.seqIdx = append(ed.seqIdx, i)
			}
			edges = append(edges, edge{w, ed.seq, ed.seqIdx})
		}
		if rest := 1 - mass; rest > 1e-9 {
			ed := edge{weight: rest, seq: make([]isa.Inst, window), seqIdx: make([]int, window)}
			for i := range ed.seqIdx {
				ed.seqIdx[i] = -1
			}
			edges = append(edges, ed)
		}
		for _, ed := range edges {
			positions := make([]int, n)
			for k := range positions {
				positions[k] = len(ed.seq) + k
			}
			seq, seqIdx := ed.seq, ed.seqIdx
			for i := blk.Start; i < blk.End; i++ {
				seq = append(seq, g.Prog.Insts[i])
				seqIdx = append(seqIdx, i)
			}
			for k, f := range fails(seq, seqIdx, positions) {
				cc.Fail[b][k] += ed.weight * f
			}
		}
		// Flushed state: a nop before every block instruction.
		seq := make([]isa.Inst, window)
		seqIdx := make([]int, window)
		for i := range seqIdx {
			seqIdx[i] = -1
		}
		positions := make([]int, n)
		for i := blk.Start; i < blk.End; i++ {
			seq = append(seq, isa.Inst{})
			seqIdx = append(seqIdx, -1)
			positions[i-blk.Start] = len(seq)
			seq = append(seq, g.Prog.Insts[i])
			seqIdx = append(seqIdx, i)
		}
		copy(cc.FailFlush[b], fails(seq, seqIdx, positions))
	}
	return cc
}

// scenarioZero runs a benchmark's scenario 0 through the tally interpreter
// and returns its graph, profile and representative EX results.
func scenarioZero(t *testing.T, bm mibench.Benchmark, ft *cpu.FailTable) (*cfg.Graph, *cfg.Profile, []uint32) {
	t.Helper()
	g, err := cfg.Build(bm.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(bm.Prog, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if err := bm.Setup(c, 0); err != nil {
		t.Fatal(err)
	}
	tally, st, err := c.RunTally(context.Background(), ft)
	if err != nil {
		t.Fatal(err)
	}
	return g, cfg.FromTally(g, tally, st.Instructions), tally.Result
}

// characterizationMachine returns a fresh machine and the fail table of its
// trained datapath at its analysis period.
func characterizationMachine(t *testing.T) (*errormodel.Machine, *cpu.FailTable) {
	t.Helper()
	m, err := errormodel.NewMachine(errormodel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	table, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m, table.At(m.AnalysisPeriodPs).FailTable()
}

// sameChar fails the test unless two characterizations are bit-identical.
func sameChar(t *testing.T, label string, got, want *errormodel.ControlChar) {
	t.Helper()
	if !reflect.DeepEqual(got.Fail, want.Fail) {
		t.Errorf("%s: Fail differs\ngot  %v\nwant %v", label, got.Fail, want.Fail)
	}
	if !reflect.DeepEqual(got.FailFlush, want.FailFlush) {
		t.Errorf("%s: FailFlush differs\ngot  %v\nwant %v", label, got.FailFlush, want.FailFlush)
	}
	if got.TrainedBlocks != want.TrainedBlocks {
		t.Errorf("%s: TrainedBlocks = %d, want %d", label, got.TrainedBlocks, want.TrainedBlocks)
	}
}

// TestCharacterizeControlMatchesOracle checks that the control
// characterization of every benchmark's scenario 0 equals, bit for bit, the
// one the per-cycle oracle drives.
func TestCharacterizeControlMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes all twelve benchmarks twice")
	}
	m, ft := characterizationMachine(t)
	for _, bm := range mibench.All() {
		g, pr, results := scenarioZero(t, bm, ft)
		got, err := m.CharacterizeControl(context.Background(), g, pr, results)
		if err != nil {
			t.Fatal(err)
		}
		sameChar(t, bm.Name, got, oracleCharacterize(t, m, g, pr, results))
	}
}

// TestConcurrentColdCharacterization has two goroutines characterize the
// same program on one cold machine, racing on the stimulus memo's entries
// (run it under -race); both tables must equal a serial characterization.
func TestConcurrentColdCharacterization(t *testing.T) {
	m, ft := characterizationMachine(t)
	bm, err := mibench.ByName("typeset")
	if err != nil {
		t.Fatal(err)
	}
	g, pr, results := scenarioZero(t, bm, ft)
	pr.Settle()
	var got [2]*errormodel.ControlChar
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = m.CharacterizeControl(context.Background(), g, pr, results)
		}(i)
	}
	wg.Wait()
	m.ClearStimulusMemo()
	want, err := m.CharacterizeControlWorkers(context.Background(), g, pr, results, 1, m.WorkingPeriodPs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameChar(t, "concurrent", got[i], want)
	}
}
