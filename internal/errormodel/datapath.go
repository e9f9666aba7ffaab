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

// DatapathTable is the higher-level datapath timing model of [2] without a
// clock: it is trained once per machine by applying Algorithm 1 to the data
// endpoints of each functional unit while special stimulus selectively
// activates timing paths of a known depth. Each row is the unit's DTS form
// at period 0, the negated delay of the activated paths that StageDTS adds a
// clock period to, so the model at any period is At of that period. A row
// no stimulus activates is the zero form.
type DatapathTable struct {
	// Adder[d] is the adder's row when a carry chain of exactly d bits is
	// activated.
	Adder []variation.Canon
	// Shift[k] covers k active barrel-shifter layers (depth feature = k+1).
	Shift []variation.Canon
	// Mul[d] covers the array multiplier when the smaller operand has d
	// significant bits (d rows of the array carry).
	Mul []variation.Canon
	// Logic is the (depth-independent) logic unit's row.
	Logic variation.Canon
}

// DatapathModel is the datapath model at one clock period, consulted per
// dynamic instruction using only architecturally visible values (the
// activated-depth features the simulator extracts): each failure
// probability is P(DTS < 0) of a DatapathTable row at that period.
type DatapathModel struct {
	AdderFail []float64
	ShiftFail []float64
	LogicFail float64
	MulFail   []float64

	// table flattens the per-class clamping rules of failProbSlow into one
	// depth-indexed row per opcode, built lazily on first use. FailProb and
	// the tally run read it once or twice per retired instruction, so it
	// must be a pair of loads, not a switch.
	tableOnce sync.Once
	table     *cpu.FailTable
}

// At returns the model at clock period period (ps): every trained row
// shifted by the period, with the one addition StageDTS performs, and
// passed to dta.ErrorProbability, so it is bit for bit the model a training
// at that period gives. An untrained row has probability 0.
func (t *DatapathTable) At(period float64) *DatapathModel {
	fail := func(s variation.Canon) float64 {
		if len(s.Sens) == 0 {
			return 0
		}
		return dta.ErrorProbability(variation.Canon{Mean: s.Mean + period, Sens: s.Sens, Rand: s.Rand})
	}
	fails := func(rows []variation.Canon) []float64 {
		p := make([]float64, len(rows))
		for d, s := range rows {
			p[d] = fail(s)
		}
		return p
	}
	return &DatapathModel{AdderFail: fails(t.Adder), ShiftFail: fails(t.Shift), LogicFail: fail(t.Logic), MulFail: fails(t.Mul)}
}

// datapathSweep is one unit's training sweep: the unit's analyzer and
// netlist, and the table rows it fills from row first on. drive applies
// row r's stimulus to the unit's inputs on cycle 1, after a cycle that
// settles at zero.
type datapathSweep struct {
	dta   *dta.Analyzer
	n     *netlist.Netlist
	first int
	rows  []variation.Canon
	drive func(in activity.Inputs, r int)
}

// datapathSweeps returns the four sweeps that fill t, logic standing in for
// t.Logic: 32 adder carry depths, 5 shifter layer counts, 16 multiplier
// operand widths, and the single full-switch logic measurement.
func (m *Machine) datapathSweeps(t *DatapathTable, logic []variation.Canon) [4]datapathSweep {
	low := func(bits int) uint64 { return 1<<uint(bits) - 1 }
	return [4]datapathSweep{
		{m.AdderDTA, m.Adder.N, 1, t.Adder, func(in activity.Inputs, d int) {
			in.SetWord(m.Adder.A[:], low(d)) // a + 1, carry-in 0: a carry chain of d bits
			in.SetWord(m.Adder.B[:], 1)
		}},
		{m.ShifterDTA, m.Shifter.N, 1, t.Shift, func(in activity.Inputs, k int) {
			in.SetWord(m.Shifter.In[:], 0xFFFFFFFF)
			in.SetWord(m.Shifter.Amt[:], low(k)) // k low bits set: k active layers
		}},
		{m.MultDTA, m.Mult.N, 1, t.Mul, func(in activity.Inputs, d int) {
			in.SetWord(m.Mult.A[:], 0xFFFF)
			in.SetWord(m.Mult.B[:], low(d))
		}},
		{m.LogicDTA, m.Logic.N, 0, logic, func(in activity.Inputs, _ int) {
			in.SetWord(m.Logic.A[:], 0xFFFFFFFF)
			in.SetWord(m.Logic.B[:], 0x55555555)
			in.Set(m.Logic.Sel[1], true) // xor
		}},
	}
}

// trace simulates row r's stimulus on sim, the sweep's compiled netlist.
func (s *datapathSweep) trace(sim *activity.Sim, r int) (*activity.Trace, error) {
	return sim.Run(2, func(t int, in activity.Inputs) {
		if t == 1 {
			s.drive(in, r)
		}
	})
}

// TrainDatapath measures the period-free datapath table. It mirrors the
// training flow of Figure 2: run targeted vectors through the gate-level
// unit, record activity, and apply Algorithm 1 to the data endpoints at
// period 0. Training runs on the shared worker pool with GOMAXPROCS
// workers; once ctx is done no further row measurement starts, and the call
// returns ctx's error.
func (m *Machine) TrainDatapath(ctx context.Context) (*DatapathTable, error) {
	return m.TrainDatapathWorkers(ctx, 0)
}

// TrainDatapathWorkers is TrainDatapath on a bounded pool of the given
// number of workers (<= 0 selects runtime.GOMAXPROCS). Every row
// measurement is an independent task: it owns its trace, writes a distinct
// row, and the compiled netlists and DTA analyzers it shares are safe for
// concurrent use, so the table is bit-identical for any worker count.
func (m *Machine) TrainDatapathWorkers(ctx context.Context, workers int) (*DatapathTable, error) {
	t := &DatapathTable{
		Adder: make([]variation.Canon, 33),
		Shift: make([]variation.Canon, 6),
		Mul:   make([]variation.Canon, 17),
	}
	logic := make([]variation.Canon, 1)
	type task struct {
		sweep *datapathSweep
		sim   *activity.Sim
		eps   []netlist.GateID
		row   int
	}
	var tasks []task
	sweeps := m.datapathSweeps(t, logic)
	for i := range sweeps {
		s := &sweeps[i]
		sim, err := activity.Compile(s.n)
		if err != nil {
			return nil, err
		}
		eps := s.n.DataEndpoints(0)
		for r := s.first; r < len(s.rows); r++ {
			tasks = append(tasks, task{s, sim, eps, r})
		}
	}
	errs := make([]error, len(tasks))
	pool.Run(ctx, len(tasks), workers, false, errs, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		tk := tasks[i]
		tr, err := tk.sweep.trace(tk.sim, tk.row)
		if err != nil {
			return err
		}
		if slack, ok := tk.sweep.dta.StageDTS(tk.eps, 1, tr, 0); ok {
			tk.sweep.rows[tk.row] = slack
		}
		return nil
	})
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	t.Logic = logic[0]
	return t, nil
}

// Validate reports whether t has the shape training gives it, for a
// variation model of pcs principal components. A table that comes from
// outside the process (a model-cache snapshot) must pass it before it is
// used: it checks the row counts the generators fix (33 adder, 6 shift, 17
// multiplier rows), and that every row, the logic row included, is either
// the zero form of an untrained row or a form of pcs sensitivities with a
// finite mean and a finite variance. A finite variance bounds the residual
// and every sensitivity, and a sensitivity whose square overflows makes it
// NaN, so every probability At derives is a number in [0, 1].
func (t *DatapathTable) Validate(pcs int) error {
	for _, u := range []struct {
		name string
		rows []variation.Canon
		want int
	}{
		{"adder", t.Adder, 33},
		{"shift", t.Shift, 6},
		{"multiplier", t.Mul, 17},
		{"logic", []variation.Canon{t.Logic}, 1},
	} {
		if len(u.rows) != u.want {
			return fmt.Errorf("errormodel: %s table has %d rows, want %d", u.name, len(u.rows), u.want)
		}
		for d, s := range u.rows {
			if err := validateRow(s, pcs); err != nil {
				return fmt.Errorf("errormodel: %s row %d: %w", u.name, d, err)
			}
		}
	}
	return nil
}

// validateRow checks one table row; see Validate.
func validateRow(s variation.Canon, pcs int) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case len(s.Sens) == 0 && (s.Mean != 0 || s.Rand != 0):
		return fmt.Errorf("untrained row holds mean %v, residual %v", s.Mean, s.Rand)
	case len(s.Sens) == 0:
		return nil
	case len(s.Sens) != pcs:
		return fmt.Errorf("%d sensitivities, want %d", len(s.Sens), pcs)
	case !finite(s.Mean) || !finite(s.Var()):
		return fmt.Errorf("form of mean %v and variance %v is not finite", s.Mean, s.Var())
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
