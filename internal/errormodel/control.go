package errormodel

import (
	"context"
	"encoding/binary"
	"math"
	"sync"

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

// stimMemoLimit bounds the stimulus memo; dropping it wholesale on overflow
// keeps memory bounded without affecting results (entries are pure functions
// of their key).
const stimMemoLimit = 1 << 12

// stimEntry is one memoized control stimulus: the control-path instruction
// failure probability at every fetch position queried so far. The
// activation trace is not kept — a query for a position the entry lacks
// simulates the stimulus again (microseconds) — so an entry costs a few
// floats, not a trace.
type stimEntry struct {
	mu sync.Mutex
	// fail maps sequence position to failure probability; guarded by mu.
	fail map[int]float64
}

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
// defined by (seq, seqIdx, results). The per-position probabilities are
// memoized on the period and the exact (instruction word, EX result)
// stream: different blocks and incoming edges frequently replay identical
// streams (shared predecessors, all-nop prefixes), and the probability is a
// pure function of the two, so reusing the memo is bit-identical to
// recomputing. A query with a position the entry lacks simulates the stream
// and fills in every missing position; concurrent queries may both
// simulate, and both store the same values.
func (m *Machine) stimulusFails(seq []isa.Inst, seqIdx []int, results []uint32, positions []int, period float64) ([]float64, error) {
	total := len(seq) + cpu.NumStages
	key := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+8*total), math.Float64bits(period))
	for t := 0; t < total; t++ {
		word, res := m.stimulusCycle(seq, seqIdx, results, t)
		key = append(key,
			byte(word), byte(word>>8), byte(word>>16), byte(word>>24),
			byte(res), byte(res>>8), byte(res>>16), byte(res>>24))
	}
	m.stimMu.Lock()
	if m.stim == nil {
		m.stim = map[string]*stimEntry{}
	}
	e, ok := m.stim[string(key)]
	if !ok {
		if len(m.stim) >= stimMemoLimit {
			m.stim = map[string]*stimEntry{}
		}
		e = &stimEntry{fail: map[int]float64{}}
		m.stim[string(key)] = e
	}
	m.stimMu.Unlock()
	out := make([]float64, len(positions))
	var missing []int // indices into positions
	e.mu.Lock()
	for i, t := range positions {
		f, ok := e.fail[t]
		if !ok {
			missing = append(missing, i)
		}
		out[i] = f
	}
	e.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}
	tr, err := m.controlStimulus(seq, seqIdx, results)
	if err != nil {
		return nil, err
	}
	for _, i := range missing {
		out[i] = m.instDTSFail(positions[i], tr, period)
	}
	tr.Release()
	e.mu.Lock()
	for _, i := range missing {
		e.fail[positions[i]] = out[i]
	}
	e.mu.Unlock()
	return out, nil
}

// ClearStimulusMemo drops the stimulus memo, for benchmarks that measure
// cold characterization.
func (m *Machine) ClearStimulusMemo() {
	m.stimMu.Lock()
	m.stim = nil
	m.stimMu.Unlock()
}

// instDTSFail returns the control-endpoint instruction error probability for
// the instruction fetched at cycle t of the trace, under clock period period.
func (m *Machine) instDTSFail(t int, tr *activity.Trace, period float64) float64 {
	form, ok := m.CtrlDTA.InstDTSSets(t, tr, m.ctrlSets, period)
	if !ok {
		return 0
	}
	return dta.ErrorProbability(form)
}

// CharacterizeControl performs the control-network DTS characterization for
// every executed basic block of the program. This is the expensive gate-level
// part of the framework, and — as the paper stresses — it runs only once and
// only on short sequences (each block prefixed by a window of its
// predecessor), not on whole program executions. results holds a
// representative EX result value per static instruction, recorded during the
// training run. Blocks characterize at the working period on the shared
// worker pool with GOMAXPROCS workers.
func (m *Machine) CharacterizeControl(ctx context.Context, g *cfg.Graph, pr *cfg.Profile, results []uint32) (*ControlChar, error) {
	return m.CharacterizeControlWorkers(ctx, g, pr, results, 0, m.WorkingPeriodPs)
}

// CharacterizeControlWorkers is CharacterizeControl at clock period period
// (ps) on a bounded pool of the given number of workers (<= 0 selects
// runtime.GOMAXPROCS). Blocks are independent tasks writing distinct rows of
// the output tables; per-block accumulation preserves the serial edge order
// and every memoized quantity is a pure function of its key, so the tables
// are bit-identical for any worker count.
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
	pool.Run(ctx, nb, workers, false, errs, func(_ context.Context, b int) error {
		return m.characterizeBlock(g, pr, results, cc, trained, b, period)
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
// period period.
func (m *Machine) characterizeBlock(g *cfg.Graph, pr *cfg.Profile, results []uint32, cc *ControlChar, trained []bool, b int, period float64) error {
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
		fails, err := m.stimulusFails(seq, seqIdx, results, positions, period)
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
	fails, err := m.stimulusFails(seq, seqIdx, results, pos, period)
	if err != nil {
		return err
	}
	copy(cc.FailFlush[b], fails)
	return nil
}
