package errormodel

import (
	"context"
	"encoding/binary"
	"math"

	"tsperr/internal/activity"
	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/dta"
	"tsperr/internal/isa"
	"tsperr/internal/pool"
)

// ControlChar is the per-basic-block control-network DTS characterization of
// Section 4: for every block and every instruction position it stores the
// control-path timing-error probability, mixed over the profiled incoming
// edges (the paper characterizes "along all incoming edges" because two
// blocks share the pipeline at block boundaries), plus the flushed-state
// variant extracted with nop instrumentation.
type ControlChar struct {
	// Fail[b][k] is P(control DTS < 0) for the k-th instruction of block b
	// given normal execution of its predecessor.
	Fail [][]float64
	// FailFlush[b][k] is the same probability given the pipeline was flushed
	// before the instruction (previous instruction errored).
	FailFlush [][]float64
	// TrainedBlocks counts blocks that were actually characterized
	// (executed at least once in the training profile).
	TrainedBlocks int
}

// prefixWindow is how many trailing predecessor instructions precede the
// block during characterization, enough to fill the 6-stage pipeline.
const prefixWindow = cpu.NumStages

// stimMemoLimit bounds the stimulus memo, least recently used entry first.
// The scenario-0 characterizations of all 12 programs fill 791 entries
// (2,428 positions), and since no entry depends on the clock, so do they at
// every period and every temperature of the machine's voltage.
const stimMemoLimit = 1 << 12

// instDTS is the period-free control DTS of one instruction: at clock
// period T its DTS is Gaussian of mean mean+T and deviation std. An
// instruction whose stages activate no path has mean +Inf, so no clock
// fails it.
type instDTS struct{ mean, std float64 }

// controlStimulus drives the control network for one instruction sequence
// and returns the activation trace. results[i] supplies the representative
// EX result value for static instruction index i (from the training run);
// entries for pseudo-instructions (nops) observe zero.
func (m *Machine) controlStimulus(seq []isa.Inst, seqIdx []int, results []uint32) (*activity.Trace, error) {
	total := len(seq) + cpu.NumStages // drain so late stages see the tail
	return m.ctrlSim.Run(total, func(t int, in activity.Inputs) {
		word, res := m.stimulusCycle(seq, seqIdx, results, t)
		in.SetWord(m.Ctrl.Instr[:], uint64(word))
		in.SetWord(m.Ctrl.ExResult[:], uint64(res))
	})
}

// stimulusCycle returns the (instruction word, EX result) pair the control
// network observes at cycle t of a stimulus sequence. The instruction in EX
// at cycle t entered IF at t-StageEX.
func (m *Machine) stimulusCycle(seq []isa.Inst, seqIdx []int, results []uint32, t int) (word, res uint32) {
	if t < len(seq) {
		word = seq[t].Encode()
	}
	if k := t - cpu.StageEX; k >= 0 && k < len(seq) {
		if idx := seqIdx[k]; idx >= 0 && idx < len(results) {
			res = results[idx]
		}
	}
	return word, res
}

// stimulusFails returns the control-path instruction failure probability
// under clock period period at each queried fetch position of the stimulus
// defined by (seq, seqIdx, results). The period-free DTS of the positions
// is memoized on the positions and the exact (instruction word, EX result)
// stream: different blocks and incoming edges frequently replay identical
// streams (shared predecessors, all-nop prefixes), every period prices the
// same DTS, and the DTS is a pure function of the key, so reusing the memo
// is bit-identical to recomputing. A missing entry is built under ctx.
func (m *Machine) stimulusFails(ctx context.Context, seq []isa.Inst, seqIdx []int, results []uint32, positions []int, period float64) ([]float64, error) {
	// The key: the position count, the positions, then the word and result
	// of every cycle, 4 bytes each, little-endian, built on the stack when
	// it fits.
	total := len(seq) + cpu.NumStages
	var buf [1024]byte
	key := binary.LittleEndian.AppendUint32(buf[:0], uint32(len(positions)))
	for _, t := range positions {
		key = binary.LittleEndian.AppendUint32(key, uint32(t))
	}
	for t := 0; t < total; t++ {
		word, res := m.stimulusCycle(seq, seqIdx, results, t)
		key = binary.LittleEndian.AppendUint32(key, word)
		key = binary.LittleEndian.AppendUint32(key, res)
	}
	dts, err := m.stim.Load().Get(ctx, string(key), func(context.Context) ([]instDTS, error) {
		tr, err := m.controlStimulus(seq, seqIdx, results)
		if err != nil {
			return nil, err
		}
		defer tr.Release()
		dts := make([]instDTS, len(positions))
		for i, t := range positions {
			dts[i] = m.controlDTS(t, tr)
		}
		return dts, nil
	})
	if err != nil {
		return nil, err
	}
	fails := make([]float64, len(dts))
	for i, d := range dts {
		fails[i] = dta.ErrorProbability(d.mean+period, d.std)
	}
	return fails, nil
}

// ClearStimulusMemo gives the machine an empty stimulus memo, as newMachine
// does, for benchmarks that measure cold characterization.
func (m *Machine) ClearStimulusMemo() {
	m.stim.Store(pool.NewMemo[string, []instDTS](stimMemoLimit))
}

// controlDTS returns the period-free control-endpoint DTS of the
// instruction fetched at cycle t of the trace.
func (m *Machine) controlDTS(t int, tr *activity.Trace) instDTS {
	form, ok := m.CtrlDTA.InstDTSSets(t, tr, m.ctrlSets)
	if !ok {
		return instDTS{mean: math.Inf(1)}
	}
	return instDTS{form.Mean, form.Std()}
}

// CharacterizeControl performs the control-network DTS characterization for
// every executed basic block of the program. This is the expensive gate-level
// part of the framework, and — as the paper stresses — it runs only once and
// only on short sequences (each block prefixed by a window of its
// predecessor), not on whole program executions. results holds a
// representative EX result value per static instruction, recorded during the
// training run. Blocks characterize at the machine's analysis period
// (AnalysisPeriodPs) on the shared worker pool with GOMAXPROCS workers.
func (m *Machine) CharacterizeControl(ctx context.Context, g *cfg.Graph, pr *cfg.Profile, results []uint32) (*ControlChar, error) {
	return m.CharacterizeControlWorkers(ctx, g, pr, results, 0, m.AnalysisPeriodPs)
}

// CharacterizeControlWorkers is CharacterizeControl at clock period period
// (ps) on a bounded pool of the given number of workers (<= 0 selects
// runtime.GOMAXPROCS). Blocks are independent tasks writing distinct rows of
// the output tables; per-block accumulation preserves the serial edge order
// and every memoized quantity is a pure function of its key, so the tables
// are bit-identical for any worker count. The stimulus memo holds no clock,
// so characterizations at every period share it.
func (m *Machine) CharacterizeControlWorkers(ctx context.Context, g *cfg.Graph, pr *cfg.Profile, results []uint32, workers int, period float64) (*ControlChar, error) {
	nb := len(g.Blocks)
	cc := &ControlChar{
		Fail:      make([][]float64, nb),
		FailFlush: make([][]float64, nb),
	}
	trained := make([]bool, nb)
	errs := make([]error, nb)
	// The block workers share pr: settle its lazily built edge state first,
	// so that they only read it.
	pr.Settle()
	pool.Run(ctx, nb, workers, false, errs, func(ctx context.Context, b int) error {
		return m.characterizeBlock(ctx, g, pr, results, cc, trained, b, period)
	})
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	for _, t := range trained {
		if t {
			cc.TrainedBlocks++
		}
	}
	return cc, nil
}

// characterizeBlock fills row b of the characterization tables at clock
// period period, building missing stimulus-memo entries under ctx.
func (m *Machine) characterizeBlock(ctx context.Context, g *cfg.Graph, pr *cfg.Profile, results []uint32, cc *ControlChar, trained []bool, b int, period float64) error {
	blk := &g.Blocks[b]
	n := blk.NumInsts()
	cc.Fail[b] = make([]float64, n)
	cc.FailFlush[b] = make([]float64, n)
	if pr.ExecCount[b] == 0 {
		return nil
	}
	trained[b] = true

	// Incoming edges with activation probabilities; the residual mass is
	// the program-start pseudo-edge, characterized with a nop prefix
	// (flushed processor, as the paper assumes at program entry).
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
		// Normal-execution sequence: prefix ++ block body.
		seq := append([]isa.Inst{}, in.prefix...)
		seqIdx := append([]int{}, in.prefIdx...)
		for i := blk.Start; i < blk.End; i++ {
			seq = append(seq, g.Prog.Insts[i])
			seqIdx = append(seqIdx, i)
		}
		positions := make([]int, n)
		for k := 0; k < n; k++ {
			positions[k] = len(in.prefix) + k
		}
		fails, err := m.stimulusFails(ctx, seq, seqIdx, results, positions, period)
		if err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			cc.Fail[b][k] += in.weight * fails[k]
		}
	}

	// Flushed-state sequence: a nop is inserted before every block
	// instruction (Section 4.1). The conditional p^e does not depend on
	// which edge was taken — the pipeline state is the flush state — so
	// one characterization per block suffices.
	var seq []isa.Inst
	var seqIdx []int
	for i := 0; i < prefixWindow; i++ {
		seq = append(seq, isa.Inst{})
		seqIdx = append(seqIdx, -1)
	}
	pos := make([]int, n)
	for i := blk.Start; i < blk.End; i++ {
		seq = append(seq, isa.Inst{}) // nop mimicking the flush
		seqIdx = append(seqIdx, -1)
		pos[i-blk.Start] = len(seq)
		seq = append(seq, g.Prog.Insts[i])
		seqIdx = append(seqIdx, i)
	}
	fails, err := m.stimulusFails(ctx, seq, seqIdx, results, pos, period)
	if err != nil {
		return err
	}
	copy(cc.FailFlush[b], fails)
	return nil
}
