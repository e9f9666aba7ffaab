package errormodel

import (
	"context"
	"fmt"
	"math"
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

// TrainDatapath measures the per-depth DTS tables. It mirrors the training
// flow of Figure 2: run targeted vectors through the gate-level unit, record
// activity, and apply Algorithm 1 to the data endpoints. Training runs at the
// working period on the shared worker pool with GOMAXPROCS workers; ctx
// cancels between depth measurements.
func (m *Machine) TrainDatapath(ctx context.Context) (*DatapathModel, error) {
	return m.TrainDatapathWorkers(ctx, 0, m.WorkingPeriodPs)
}

// TrainDatapathWorkers is TrainDatapath at clock period period (ps) on a
// bounded pool of the given number of workers (<= 0 selects
// runtime.GOMAXPROCS). Every per-depth measurement is an independent task:
// it owns its simulator and trace, writes a distinct table slot, and the DTA
// analyzers it consults are safe for concurrent use, so the tables are
// bit-identical for any worker count.
func (m *Machine) TrainDatapathWorkers(ctx context.Context, workers int, period float64) (*DatapathModel, error) {
	dp := &DatapathModel{
		AdderSlack: make([]variation.Canon, 33),
		AdderFail:  make([]float64, 33),
		ShiftSlack: make([]variation.Canon, 6),
		ShiftFail:  make([]float64, 6),
		MulSlack:   make([]variation.Canon, 17),
		MulFail:    make([]float64, 17),
	}
	// Each unit is compiled for simulation once and shared by its tasks.
	var sims [4]*activity.Sim
	for i, n := range []*netlist.Netlist{m.Adder.N, m.Shifter.N, m.Mult.N, m.Logic.N} {
		sim, err := activity.Compile(n)
		if err != nil {
			return nil, err
		}
		sims[i] = sim
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
		tasks = append(tasks, func() error { return m.trainAdderDepth(dp, sims[0], adderEps, d, period) })
	}
	for k := 1; k <= 5; k++ {
		k := k
		tasks = append(tasks, func() error { return m.trainShiftLayers(dp, sims[1], shiftEps, k, period) })
	}
	for d := 1; d <= 16; d++ {
		d := d
		tasks = append(tasks, func() error { return m.trainMulWidth(dp, sims[2], mulEps, d, period) })
	}
	tasks = append(tasks, func() error { return m.trainLogic(dp, sims[3], logicEps, period) })

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
func (m *Machine) trainAdderDepth(dp *DatapathModel, sim *activity.Sim, eps []netlist.GateID, d int, period float64) error {
	a := uint64(0xFFFFFFFF)
	if d < 32 {
		a = (uint64(1) << uint(d)) - 1
	}
	// Cycle 0 settles at zero; cycle 1 applies a + 1 with carry-in 0.
	tr, err := sim.Run(2, func(t int, in activity.Inputs) {
		if t == 1 {
			in.SetWord(m.Adder.A[:], a)
			in.SetWord(m.Adder.B[:], 1)
		}
	})
	if err != nil {
		return err
	}
	slack, ok := m.AdderDTA.StageDTS(eps, 1, tr, period)
	if !ok {
		return nil // no activated path at this depth
	}
	dp.AdderSlack[d] = slack
	dp.AdderFail[d] = dta.ErrorProbability(slack)
	return nil
}

// trainShiftLayers measures the shifter DTS with k active barrel layers and
// fills table slot k.
func (m *Machine) trainShiftLayers(dp *DatapathModel, sim *activity.Sim, eps []netlist.GateID, k int, period float64) error {
	amt := (uint64(1) << uint(k)) - 1 // k low bits set => k active layers
	tr, err := sim.Run(2, func(t int, in activity.Inputs) {
		if t == 1 {
			in.SetWord(m.Shifter.In[:], 0xFFFFFFFF)
			in.SetWord(m.Shifter.Amt[:], amt)
		}
	})
	if err != nil {
		return err
	}
	slack, ok := m.ShifterDTA.StageDTS(eps, 1, tr, period)
	if !ok {
		return nil
	}
	dp.ShiftSlack[k] = slack
	dp.ShiftFail[k] = dta.ErrorProbability(slack)
	return nil
}

// trainMulWidth measures the multiplier DTS with d significant bits in the
// smaller operand and fills table slot d.
func (m *Machine) trainMulWidth(dp *DatapathModel, sim *activity.Sim, eps []netlist.GateID, d int, period float64) error {
	bw := uint64(0xFFFF)
	if d < 16 {
		bw = (uint64(1) << uint(d)) - 1
	}
	tr, err := sim.Run(2, func(t int, in activity.Inputs) {
		if t == 1 {
			in.SetWord(m.Mult.A[:], 0xFFFF)
			in.SetWord(m.Mult.B[:], bw)
		}
	})
	if err != nil {
		return err
	}
	slack, ok := m.MultDTA.StageDTS(eps, 1, tr, period)
	if !ok {
		return nil
	}
	dp.MulSlack[d] = slack
	dp.MulFail[d] = dta.ErrorProbability(slack)
	return nil
}

// trainLogic performs the single full-switch logic-unit measurement.
func (m *Machine) trainLogic(dp *DatapathModel, sim *activity.Sim, eps []netlist.GateID, period float64) error {
	tr, err := sim.Run(2, func(t int, in activity.Inputs) {
		if t == 1 {
			in.SetWord(m.Logic.A[:], 0xFFFFFFFF)
			in.SetWord(m.Logic.B[:], 0x55555555)
			in.Set(m.Logic.Sel[1], true) // xor
		}
	})
	if err != nil {
		return err
	}
	if slack, ok := m.LogicDTA.StageDTS(eps, 1, tr, period); ok {
		dp.LogicFail = dta.ErrorProbability(slack)
	}
	return nil
}

// Validate reports whether dp has the shape and the numbers training gives
// it, for a variation model of pcs principal components. A model that comes
// from outside the process (a model-cache snapshot) must pass it before it
// is used: it checks the row counts the generators fix (33 adder, 6 shift,
// 17 multiplier rows); that a trained slack form has pcs finite
// sensitivities, a finite mean and residual, and a failure probability equal
// bit for bit to dta.ErrorProbability of the form, while an untrained slot
// holds the zero form and probability 0; and that the logic probability is
// in [0, 1].
func (dp *DatapathModel) Validate(pcs int) error {
	for _, u := range []struct {
		name  string
		slack []variation.Canon
		fail  []float64
		rows  int
	}{
		{"adder", dp.AdderSlack, dp.AdderFail, 33},
		{"shift", dp.ShiftSlack, dp.ShiftFail, 6},
		{"multiplier", dp.MulSlack, dp.MulFail, 17},
	} {
		if len(u.slack) != u.rows || len(u.fail) != u.rows {
			return fmt.Errorf("errormodel: %s tables have %d and %d rows, want %d", u.name, len(u.slack), len(u.fail), u.rows)
		}
		for d, s := range u.slack {
			if err := validateRow(s, u.fail[d], pcs); err != nil {
				return fmt.Errorf("errormodel: %s row %d: %w", u.name, d, err)
			}
		}
	}
	if !(dp.LogicFail >= 0 && dp.LogicFail <= 1) {
		return fmt.Errorf("errormodel: logic failure probability %v outside [0, 1]", dp.LogicFail)
	}
	return nil
}

// validateRow checks one trained-table slot; see Validate.
func validateRow(s variation.Canon, fail float64, pcs int) error {
	if len(s.Sens) == 0 {
		if s.Mean != 0 || s.Rand != 0 || fail != 0 {
			return fmt.Errorf("untrained slot holds mean %v, residual %v, probability %v", s.Mean, s.Rand, fail)
		}
		return nil
	}
	if len(s.Sens) != pcs {
		return fmt.Errorf("%d sensitivities, want %d", len(s.Sens), pcs)
	}
	finite := !math.IsNaN(s.Mean) && !math.IsInf(s.Mean, 0) && !math.IsNaN(s.Rand) && !math.IsInf(s.Rand, 0)
	for _, v := range s.Sens {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if !finite {
		return fmt.Errorf("slack form is not finite")
	}
	if want := dta.ErrorProbability(s); math.Float64bits(fail) != math.Float64bits(want) {
		return fmt.Errorf("failure probability %v, its slack form gives %v", fail, want)
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
