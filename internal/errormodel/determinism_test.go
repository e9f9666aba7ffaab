package errormodel

import (
	"context"
	"reflect"
	"testing"

	"tsperr/internal/activity"
	"tsperr/internal/cfg"
	"tsperr/internal/dta"
	"tsperr/internal/isa"
)

// seedCharacterizeControl replicates the original serial, memo-free
// characterization loop. It is the reference the parallel implementation must
// match bit-for-bit: same per-block edge ordering, same summation order, one
// fresh stimulus simulation per sequence.
func seedCharacterizeControl(m *Machine, g *cfg.Graph, pr *cfg.Profile, results []uint32) (*ControlChar, error) {
	nb := len(g.Blocks)
	cc := &ControlChar{
		Fail:      make([][]float64, nb),
		FailFlush: make([][]float64, nb),
	}
	for b := 0; b < nb; b++ {
		blk := &g.Blocks[b]
		n := blk.NumInsts()
		cc.Fail[b] = make([]float64, n)
		cc.FailFlush[b] = make([]float64, n)
		if pr.ExecCount[b] == 0 {
			continue
		}
		cc.TrainedBlocks++

		type incoming struct {
			weight  float64
			prefix  []isa.Inst
			prefIdx []int
		}
		var ins []incoming
		var mass float64
		for _, e := range pr.IncomingEdges(b) {
			w := pr.ActivationProb(e)
			if w <= 0 {
				continue
			}
			mass += w
			pred := &g.Blocks[e.From]
			start := pred.End - prefixWindow
			if start < pred.Start {
				start = pred.Start
			}
			var pfx []isa.Inst
			var idx []int
			for i := start; i < pred.End; i++ {
				pfx = append(pfx, g.Prog.Insts[i])
				idx = append(idx, i)
			}
			ins = append(ins, incoming{weight: w, prefix: pfx, prefIdx: idx})
		}
		if rest := 1 - mass; rest > 1e-9 {
			pfx := make([]isa.Inst, prefixWindow)
			idx := make([]int, prefixWindow)
			for i := range idx {
				idx[i] = -1
			}
			ins = append(ins, incoming{weight: rest, prefix: pfx, prefIdx: idx})
		}

		for _, in := range ins {
			seq := append([]isa.Inst{}, in.prefix...)
			seqIdx := append([]int{}, in.prefIdx...)
			for i := blk.Start; i < blk.End; i++ {
				seq = append(seq, g.Prog.Insts[i])
				seqIdx = append(seqIdx, i)
			}
			tr, err := m.controlStimulus(seq, seqIdx, results)
			if err != nil {
				return nil, err
			}
			for k := 0; k < n; k++ {
				cc.Fail[b][k] += in.weight * failAt(m, len(in.prefix)+k, tr, m.WorkingPeriodPs)
			}
		}

		var seq []isa.Inst
		var seqIdx []int
		for i := 0; i < prefixWindow; i++ {
			seq = append(seq, isa.Inst{})
			seqIdx = append(seqIdx, -1)
		}
		pos := make([]int, n)
		for i := blk.Start; i < blk.End; i++ {
			seq = append(seq, isa.Inst{})
			seqIdx = append(seqIdx, -1)
			pos[i-blk.Start] = len(seq)
			seq = append(seq, g.Prog.Insts[i])
			seqIdx = append(seqIdx, i)
		}
		tr, err := m.controlStimulus(seq, seqIdx, results)
		if err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			cc.FailFlush[b][k] = failAt(m, pos[k], tr, m.WorkingPeriodPs)
		}
	}
	return cc, nil
}

// failAt is the reference's control-path failure probability at clock
// period period of the instruction fetched at cycle t of tr.
func failAt(m *Machine, t int, tr *activity.Trace, period float64) float64 {
	d := m.controlDTS(t, tr)
	return dta.ErrorProbability(d.mean+period, d.std)
}

// TestCharacterizeControlDeterministic proves the block-parallel, memoizing
// characterization is bit-identical to the serial reference for any worker
// count, on both cold and warm stimulus memos.
func TestCharacterizeControlDeterministic(t *testing.T) {
	m := testMachine(t)
	g, pr, feats := runScenario(t, trainedModel(context.Background(), t, m))
	want, err := seedCharacterizeControl(m, g, pr, feats.Results)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, got *ControlChar) {
		t.Helper()
		if !reflect.DeepEqual(got.Fail, want.Fail) {
			t.Errorf("%s: Fail tables differ from serial reference\ngot  %v\nwant %v",
				label, got.Fail, want.Fail)
		}
		if !reflect.DeepEqual(got.FailFlush, want.FailFlush) {
			t.Errorf("%s: FailFlush tables differ from serial reference\ngot  %v\nwant %v",
				label, got.FailFlush, want.FailFlush)
		}
		if got.TrainedBlocks != want.TrainedBlocks {
			t.Errorf("%s: TrainedBlocks = %d, want %d", label, got.TrainedBlocks, want.TrainedBlocks)
		}
	}
	for _, workers := range []int{1, 8} {
		m.ClearStimulusMemo() // cold: every value computed by this run
		got, err := m.CharacterizeControlWorkers(context.Background(), g, pr, feats.Results, workers, m.WorkingPeriodPs)
		if err != nil {
			t.Fatal(err)
		}
		check("cold", got)
	}
	// Warm: the memo is primed by the runs above; reuse must not change bits.
	got, err := m.CharacterizeControlWorkers(context.Background(), g, pr, feats.Results, 4, m.WorkingPeriodPs)
	if err != nil {
		t.Fatal(err)
	}
	check("warm", got)
}

// TestTrainDatapathDeterministic proves the parallel training sweep produces
// a bit-identical table for any worker count.
func TestTrainDatapathDeterministic(t *testing.T) {
	m := testMachine(t)
	d1, err := m.TrainDatapathWorkers(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := m.TrainDatapathWorkers(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d8) {
		t.Error("datapath table differs between 1 and 8 workers")
	}
}
