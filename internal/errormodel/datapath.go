package errormodel

import (
	"context"
	"sync"

	"tsperr/internal/activity"
	"tsperr/internal/cpu"
	"tsperr/internal/dta"
	"tsperr/internal/isa"
	"tsperr/internal/netlist"
	"tsperr/internal/pool"
	"tsperr/internal/variation"
)

// DatapathModel is the higher-level datapath timing model of [2]: it is
// trained by applying Algorithm 1 to the data endpoints of each functional
// unit while special stimulus selectively activates timing paths of a known
// depth, and is then consulted per dynamic instruction using only
// architecturally visible values (the activated-depth features the simulator
// extracts).
type DatapathModel struct {
	// AdderSlack[d] is the canonical DTS form of the adder when a carry
	// chain of exactly d bits is activated; AdderFail[d] = P(DTS < 0).
	AdderSlack []variation.Canon
	AdderFail  []float64
	// ShiftSlack[k]/ShiftFail[k] cover k active barrel-shifter layers
	// (depth feature = k+1).
	ShiftSlack []variation.Canon
	ShiftFail  []float64
	// LogicFail is the (depth-independent) logic-unit failure probability.
	LogicFail float64
	// MulSlack[d]/MulFail[d] cover the array multiplier when the smaller
	// operand has d significant bits (d rows of the array carry).
	MulSlack []variation.Canon
	MulFail  []float64

	// table flattens the per-class clamping rules of failProbSlow into one
	// depth-indexed row per opcode, built lazily on first use (after
	// training or cache restore). FailProb and the tally run read it once or
	// twice per retired instruction, so it must be a pair of loads, not a
	// switch.
	tableOnce sync.Once
	table     *cpu.FailTable
}

// setWordDense writes a 32-bit word into a dense primary-input slice.
func setWordDense(vals []bool, gates [32]netlist.GateID, w uint32) {
	for i := 0; i < 32; i++ {
		vals[gates[i]] = (w>>uint(i))&1 == 1
	}
}

// setMulWordDense writes a 16-bit word into a dense primary-input slice.
func setMulWordDense(vals []bool, gates [16]netlist.GateID, w uint32) {
	for i := 0; i < 16; i++ {
		vals[gates[i]] = (w>>uint(i))&1 == 1
	}
}

// TrainDatapath measures the per-depth DTS tables. It mirrors the training
// flow of Figure 2: run targeted vectors through the gate-level unit, record
// activity, and apply Algorithm 1 to the data endpoints. Training runs on the
// shared worker pool with GOMAXPROCS workers; ctx cancels between depth
// measurements.
func (m *Machine) TrainDatapath(ctx context.Context) (*DatapathModel, error) {
	return m.TrainDatapathWorkers(ctx, 0)
}

// TrainDatapathWorkers is TrainDatapath on a bounded pool of the given number
// of workers (<= 0 selects runtime.GOMAXPROCS). Every per-depth measurement
// is an independent task: it owns its simulator and trace, writes a distinct
// table slot, and the DTA analyzers it consults are safe for concurrent use,
// so the tables are bit-identical for any worker count.
func (m *Machine) TrainDatapathWorkers(ctx context.Context, workers int) (*DatapathModel, error) {
	dp := &DatapathModel{
		AdderSlack: make([]variation.Canon, 33),
		AdderFail:  make([]float64, 33),
		ShiftSlack: make([]variation.Canon, 6),
		ShiftFail:  make([]float64, 6),
		MulSlack:   make([]variation.Canon, 17),
		MulFail:    make([]float64, 17),
	}
	adderEps := m.Adder.N.DataEndpoints(0)
	shiftEps := m.Shifter.N.DataEndpoints(0)
	mulEps := m.Mult.N.DataEndpoints(0)
	logicEps := m.Logic.N.DataEndpoints(0)

	// Flatten the per-depth sweeps into one task list: 32 adder carry
	// depths, 5 shifter layer counts, 16 multiplier operand widths, and the
	// single logic measurement.
	var tasks []func() error
	for d := 1; d <= 32; d++ {
		d := d
		tasks = append(tasks, func() error { return m.trainAdderDepth(dp, adderEps, d) })
	}
	for k := 1; k <= 5; k++ {
		k := k
		tasks = append(tasks, func() error { return m.trainShiftLayers(dp, shiftEps, k) })
	}
	for d := 1; d <= 16; d++ {
		d := d
		tasks = append(tasks, func() error { return m.trainMulWidth(dp, mulEps, d) })
	}
	tasks = append(tasks, func() error { return m.trainLogic(dp, logicEps) })

	errs := make([]error, len(tasks))
	pool.Run(ctx, len(tasks), workers, false, errs,
		func(_ context.Context, i int) error { return tasks[i]() })
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	return dp, nil
}

// trainAdderDepth measures the adder DTS with a carry chain of exactly d
// bits activated and fills table slot d.
func (m *Machine) trainAdderDepth(dp *DatapathModel, eps []netlist.GateID, d int) error {
	sim, err := activity.NewSimulator(m.Adder.N)
	if err != nil {
		return err
	}
	defer sim.Release()
	vals := make([]bool, m.Adder.N.NumGates())
	setWordDense(vals, m.Adder.A, 0)
	setWordDense(vals, m.Adder.B, 0)
	vals[m.Adder.Cin] = false
	tr := &activity.Trace{NumGates: m.Adder.N.NumGates()}
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	a := uint32(0xFFFFFFFF)
	if d < 32 {
		a = (uint32(1) << uint(d)) - 1
	}
	setWordDense(vals, m.Adder.A, a)
	setWordDense(vals, m.Adder.B, 1)
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	slack, ok := m.AdderDTA.StageDTS(eps, 1, tr)
	if !ok {
		return nil // no activated path at this depth
	}
	dp.AdderSlack[d] = slack
	dp.AdderFail[d] = dta.ErrorProbability(slack)
	return nil
}

// trainShiftLayers measures the shifter DTS with k active barrel layers and
// fills table slot k.
func (m *Machine) trainShiftLayers(dp *DatapathModel, eps []netlist.GateID, k int) error {
	sim, err := activity.NewSimulator(m.Shifter.N)
	if err != nil {
		return err
	}
	defer sim.Release()
	vals := make([]bool, m.Shifter.N.NumGates())
	setWordDense(vals, m.Shifter.In, 0)
	for i := 0; i < 5; i++ {
		vals[m.Shifter.Amt[i]] = false
	}
	tr := &activity.Trace{NumGates: m.Shifter.N.NumGates()}
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	setWordDense(vals, m.Shifter.In, 0xFFFFFFFF)
	amt := (uint32(1) << uint(k)) - 1 // k low bits set => k active layers
	for i := 0; i < 5; i++ {
		vals[m.Shifter.Amt[i]] = (amt>>uint(i))&1 == 1
	}
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	slack, ok := m.ShifterDTA.StageDTS(eps, 1, tr)
	if !ok {
		return nil
	}
	dp.ShiftSlack[k] = slack
	dp.ShiftFail[k] = dta.ErrorProbability(slack)
	return nil
}

// trainMulWidth measures the multiplier DTS with d significant bits in the
// smaller operand and fills table slot d.
func (m *Machine) trainMulWidth(dp *DatapathModel, eps []netlist.GateID, d int) error {
	sim, err := activity.NewSimulator(m.Mult.N)
	if err != nil {
		return err
	}
	defer sim.Release()
	vals := make([]bool, m.Mult.N.NumGates())
	setMulWordDense(vals, m.Mult.A, 0)
	setMulWordDense(vals, m.Mult.B, 0)
	tr := &activity.Trace{NumGates: m.Mult.N.NumGates()}
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	bw := uint32(0xFFFF)
	if d < 16 {
		bw = (uint32(1) << uint(d)) - 1
	}
	setMulWordDense(vals, m.Mult.A, 0xFFFF)
	setMulWordDense(vals, m.Mult.B, bw)
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	slack, ok := m.MultDTA.StageDTS(eps, 1, tr)
	if !ok {
		return nil
	}
	dp.MulSlack[d] = slack
	dp.MulFail[d] = dta.ErrorProbability(slack)
	return nil
}

// trainLogic performs the single full-switch logic-unit measurement.
func (m *Machine) trainLogic(dp *DatapathModel, eps []netlist.GateID) error {
	sim, err := activity.NewSimulator(m.Logic.N)
	if err != nil {
		return err
	}
	defer sim.Release()
	vals := make([]bool, m.Logic.N.NumGates())
	setWordDense(vals, m.Logic.A, 0)
	setWordDense(vals, m.Logic.B, 0)
	vals[m.Logic.Sel[0]] = false
	vals[m.Logic.Sel[1]] = false
	tr := &activity.Trace{NumGates: m.Logic.N.NumGates()}
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	setWordDense(vals, m.Logic.A, 0xFFFFFFFF)
	setWordDense(vals, m.Logic.B, 0x55555555)
	vals[m.Logic.Sel[1]] = true // xor
	tr.Sets = append(tr.Sets, sim.CycleDense(vals))
	if slack, ok := m.LogicDTA.StageDTS(eps, 1, tr); ok {
		dp.LogicFail = dta.ErrorProbability(slack)
	}
	return nil
}

// maxDepthFeature bounds the activated-depth feature; failProbSlow clamps
// anything larger, so the table's columns [0, maxDepthFeature] make it exact.
const maxDepthFeature = cpu.MaxDepthFeature

// failProbSlow is the reference per-class classification; it seeds the
// table and anchors the table-equivalence test.
func (dp *DatapathModel) failProbSlow(op isa.Op, depth int) float64 {
	if depth <= 0 {
		return 0
	}
	switch {
	case op == isa.OpMul:
		// The 32-bit mul's depth feature is the bit length of the smaller
		// operand; the modeled low-half 16x16 array saturates at 16 rows.
		if depth > 16 {
			depth = 16
		}
		return dp.MulFail[depth]
	case op == isa.OpAdd, op == isa.OpAddi, op == isa.OpLw, op == isa.OpSw,
		op == isa.OpSub, op == isa.OpSlt, op == isa.OpSlti,
		op == isa.OpBeq, op == isa.OpBne, op == isa.OpBlt, op == isa.OpBge:
		if depth > 32 {
			depth = 32
		}
		return dp.AdderFail[depth]
	case op == isa.OpSll, op == isa.OpSrl, op == isa.OpSra,
		op == isa.OpSlli, op == isa.OpSrli, op == isa.OpSrai:
		k := depth - 1
		if k < 0 {
			k = 0
		}
		if k > 5 {
			k = 5
		}
		return dp.ShiftFail[k]
	case op == isa.OpAnd, op == isa.OpOr, op == isa.OpXor,
		op == isa.OpAndi, op == isa.OpOri, op == isa.OpXori, op == isa.OpLui:
		return dp.LogicFail
	default:
		return 0
	}
}

// FailTable returns the model's per-op depth table, the form cpu.RunTally
// evaluates. It is built once and must not be modified.
func (dp *DatapathModel) FailTable() *cpu.FailTable {
	dp.tableOnce.Do(func() { dp.table = cpu.NewFailTable(dp.failProbSlow) })
	return dp.table
}

// lutDepth clamps a depth feature into the table's column range. Column 0
// holds probability 0, matching failProbSlow's depth <= 0 contract, so
// callers can index a row directly with the clamped value.
func lutDepth(d int) int {
	if d < 0 {
		return 0
	}
	if d > maxDepthFeature {
		return maxDepthFeature
	}
	return d
}

// FailProb returns the datapath timing-error probability of an instruction
// whose activated-depth feature is depth. Monotonicity in depth is inherited
// from the trained tables.
func (dp *DatapathModel) FailProb(op isa.Op, depth int) float64 {
	ft := dp.FailTable()
	if depth <= 0 || int(op) >= len(ft.Rows) {
		return 0
	}
	row := ft.Rows[op]
	if row == nil {
		return 0
	}
	return row[lutDepth(depth)]
}
