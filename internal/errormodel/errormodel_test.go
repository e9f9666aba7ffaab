package errormodel

import (
	"context"
	"math"
	"sync"
	"testing"

	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/isa"
)

// The machine is expensive to calibrate; share one across the package tests.
var (
	machOnce sync.Once
	mach     *Machine
	machErr  error
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	machOnce.Do(func() {
		mach, machErr = NewMachine(DefaultOptions())
	})
	if machErr != nil {
		t.Fatal(machErr)
	}
	return mach
}

func TestMachineOperatingPoints(t *testing.T) {
	m := testMachine(t)
	if math.Abs(m.BasePeriodPs-1e6/718) > 1e-9 {
		t.Errorf("base period = %v", m.BasePeriodPs)
	}
	if !(m.WorkingPeriodPs < m.PoFFPeriodPs && m.PoFFPeriodPs < m.BasePeriodPs) {
		t.Errorf("period ordering wrong: work=%v poff=%v base=%v",
			m.WorkingPeriodPs, m.PoFFPeriodPs, m.BasePeriodPs)
	}
	if math.Abs(m.WorkingFreqMHz()-718*1.15) > 1 {
		t.Errorf("working frequency = %v", m.WorkingFreqMHz())
	}
	// Adder calibration: its p99.9 max delay should sit at the PoFF period.
	got := m.AdderEngine.MaxDelayPercentile(m.Opts.CalibrationPercentile, m.Opts.KPaths)
	if math.Abs(got-m.PoFFPeriodPs) > 0.02*m.PoFFPeriodPs {
		t.Errorf("calibrated adder p-tail delay = %v, want ~%v", got, m.PoFFPeriodPs)
	}
}

func TestNewMachineRejectsBadOptions(t *testing.T) {
	o := DefaultOptions()
	o.BaseFreqMHz = 0
	if _, err := NewMachine(o); err == nil {
		t.Error("zero base frequency should fail")
	}
	// Regression: an out-of-domain calibration quantile used to panic deep
	// inside the SSTA percentile; it must be rejected at the input boundary.
	for _, p := range []float64{0, 1, 1.5, -0.1, math.NaN()} {
		o := DefaultOptions()
		o.CalibrationPercentile = p
		if _, err := NewMachine(o); err == nil {
			t.Errorf("CalibrationPercentile %v should fail", p)
		}
	}
}

// TestFailProbLUTMatchesSlow proves the depth-indexed table (and the Min
// byte gate in front of it) is bit-identical to the reference per-class
// classification for every opcode and every depth, including clamping beyond
// the table edge and the depth <= 0 contract.
func TestFailProbLUTMatchesSlow(t *testing.T) {
	m := testMachine(t)
	dp, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for d := -2; d <= maxDepthFeature+8; d++ {
			want := dp.failProbSlow(op, d)
			//tsperrlint:ignore floatcmp the LUT is a memoized copy of the slow path; it must be bit-identical
			if got := dp.FailProb(op, d); got != want {
				t.Fatalf("FailProb(%v, %d) = %v, want %v", op, d, got, want)
			}
		}
		// The byte gate must never skip a nonzero column: every depth below
		// Min[op] has probability exactly 0.
		min := dp.FailTable().Min[op]
		for d := 0; d < int(min) && d <= maxDepthFeature; d++ {
			if p := dp.failProbSlow(op, d); p != 0 {
				t.Fatalf("Min[%v] = %d but depth %d has probability %v", op, min, d, p)
			}
		}
	}
}

func TestTrainDatapathMonotone(t *testing.T) {
	m := testMachine(t)
	dp, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Deeper carry chains must not have lower failure probability.
	for d := 2; d <= 32; d++ {
		if dp.AdderFail[d] < dp.AdderFail[d-1]-1e-9 {
			t.Errorf("AdderFail not monotone at depth %d: %v < %v",
				d, dp.AdderFail[d], dp.AdderFail[d-1])
		}
	}
	// The full chain must have a small-but-meaningful failure probability at
	// the working point (this is where timing speculation lives).
	if dp.AdderFail[32] <= 0 || dp.AdderFail[32] > 0.9 {
		t.Errorf("full-chain failure probability = %v", dp.AdderFail[32])
	}
	// Short chains must be safe.
	if dp.AdderFail[4] > 1e-4 {
		t.Errorf("short chains should be safe: %v", dp.AdderFail[4])
	}
	// Shifter and logic are delay-balanced below the adder: rare failures.
	if dp.ShiftFail[5] > dp.AdderFail[32] {
		t.Errorf("shifter should fail less than full adder chain: %v vs %v",
			dp.ShiftFail[5], dp.AdderFail[32])
	}
	if dp.LogicFail > dp.ShiftFail[5]+1e-6 {
		t.Errorf("logic unit should be the safest: %v", dp.LogicFail)
	}
	// The multiplier table must be monotone and balanced below the adder.
	for d := 2; d <= 16; d++ {
		if dp.MulFail[d] < dp.MulFail[d-1]-1e-9 {
			t.Errorf("MulFail not monotone at %d: %v < %v", d, dp.MulFail[d], dp.MulFail[d-1])
		}
	}
	if dp.MulFail[16] > dp.AdderFail[32] {
		t.Errorf("multiplier (ratio 0.95) should fail less than the adder: %v vs %v",
			dp.MulFail[16], dp.AdderFail[32])
	}
}

func TestFailProbDispatch(t *testing.T) {
	dp := &DatapathModel{
		AdderFail: make([]float64, 33),
		ShiftFail: make([]float64, 6),
		MulFail:   make([]float64, 17),
		LogicFail: 0.001,
	}
	for i := range dp.AdderFail {
		dp.AdderFail[i] = float64(i) / 100
	}
	for i := range dp.ShiftFail {
		dp.ShiftFail[i] = float64(i) / 1000
	}
	for i := range dp.MulFail {
		dp.MulFail[i] = float64(i) / 10000
	}
	if got := dp.FailProb(isa.OpAdd, 10); got != 0.10 {
		t.Errorf("add depth 10 = %v", got)
	}
	if got := dp.FailProb(isa.OpAdd, 50); got != 0.32 {
		t.Errorf("depth must clamp at 32: %v", got)
	}
	//tsperrlint:ignore floatcmp dispatch must return the exact stored table entry
	if got := dp.FailProb(isa.OpMul, 9); got != dp.MulFail[9] {
		t.Errorf("mul dispatch = %v", got)
	}
	//tsperrlint:ignore floatcmp dispatch must return the exact stored table entry
	if got := dp.FailProb(isa.OpMul, 30); got != dp.MulFail[16] {
		t.Errorf("mul depth must clamp at 16: %v", got)
	}
	if got := dp.FailProb(isa.OpSub, 0); got != 0 {
		t.Errorf("zero depth must be safe: %v", got)
	}
	//tsperrlint:ignore floatcmp dispatch must return the exact stored table entry
	if got := dp.FailProb(isa.OpSlli, 3); got != dp.ShiftFail[2] {
		t.Errorf("shift dispatch = %v", got)
	}
	//tsperrlint:ignore floatcmp dispatch must return the exact stored table entry
	if got := dp.FailProb(isa.OpXor, 1); got != dp.LogicFail {
		t.Errorf("logic dispatch = %v", got)
	}
	if got := dp.FailProb(isa.OpJal, 5); got != 0 {
		t.Errorf("jal has no datapath = %v", got)
	}
}

const testProg = `
	li r1, 6
	li r2, 0
loop:
	add  r2, r2, r1
	addi r1, r1, -1
	bne  r1, r0, loop
	sw   r2, 10(r0)
	halt
`

// runScenario assembles and executes the loop program, returning graph,
// profile, and features.
func runScenario(t *testing.T, dp *DatapathModel) (*cfg.Graph, *cfg.Profile, *ScenarioFeatures) {
	t.Helper()
	p, err := isa.Assemble("loop", testProg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := cfg.NewProfile(g)
	feats, fobs := NewFeatureCollector(len(p.Insts), dp)
	c, err := cpu.New(p, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pobs := pr.Observer()
	if _, err := c.Run(func(d *cpu.DynInst) { pobs(d); fobs(d) }); err != nil {
		t.Fatal(err)
	}
	return g, pr, feats
}

func TestCharacterizeControlShapes(t *testing.T) {
	m := testMachine(t)
	dp, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g, pr, feats := runScenario(t, dp)
	cc, err := m.CharacterizeControl(context.Background(), g, pr, feats.Results)
	if err != nil {
		t.Fatal(err)
	}
	if cc.TrainedBlocks == 0 {
		t.Fatal("no blocks characterized")
	}
	for b := range g.Blocks {
		if len(cc.Fail[b]) != g.Blocks[b].NumInsts() {
			t.Errorf("block %d characterization length mismatch", b)
		}
		for k, p := range cc.Fail[b] {
			if p < 0 || p > 1 {
				t.Errorf("Fail[%d][%d]=%v out of range", b, k, p)
			}
		}
		for k, p := range cc.FailFlush[b] {
			if p < 0 || p > 1 {
				t.Errorf("FailFlush[%d][%d]=%v out of range", b, k, p)
			}
		}
	}
}

func TestConditionalsAndMarginals(t *testing.T) {
	m := testMachine(t)
	dp, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g, pr, feats := runScenario(t, dp)
	cc, err := m.CharacterizeControl(context.Background(), g, pr, feats.Results)
	if err != nil {
		t.Fatal(err)
	}
	cond := BuildConditionals(g, cc, feats)
	if len(cond.PC) != len(g.Prog.Insts) {
		t.Fatal("conditionals sized wrong")
	}
	for i := range cond.PC {
		if cond.PC[i] < 0 || cond.PC[i] > 1 || cond.PE[i] < 0 || cond.PE[i] > 1 {
			t.Errorf("conditional probability out of range at %d: %v/%v", i, cond.PC[i], cond.PE[i])
		}
	}
	scc := cfg.ComputeSCC(g, pr)
	marg, err := ComputeMarginals(g, pr, scc, cond)
	if err != nil {
		t.Fatal(err)
	}
	// The bne against r0 compares the countdown register: full borrow chains
	// mean its conditional (and marginal) probability should be the largest
	// in the program and nonzero.
	bneIdx := -1
	for i, in := range g.Prog.Insts {
		if in.Op == isa.OpBne {
			bneIdx = i
		}
	}
	if bneIdx < 0 {
		t.Fatal("no bne in program")
	}
	if marg.P[bneIdx] <= 0 {
		t.Errorf("bne marginal probability should be positive, got %v", marg.P[bneIdx])
	}
	for i, p := range marg.P {
		if p < 0 || p > 1 {
			t.Errorf("marginal[%d]=%v out of range", i, p)
		}
	}
	// Entry: the paper assumes a flushed processor at program start, so the
	// first instruction's marginal must equal its p^e.
	if math.Abs(marg.P[0]-cond.PE[0]) > 1e-9 {
		t.Errorf("first instruction marginal %v should equal PE %v (flushed start)",
			marg.P[0], cond.PE[0])
	}
	// Block input probabilities must be in [0,1] and the loop block's input
	// must mix the entry and back edges.
	for b, in := range marg.In {
		if in < 0 || in > 1 {
			t.Errorf("In[%d]=%v", b, in)
		}
	}
}

func TestMarginalsHandDerivedChain(t *testing.T) {
	// A straight-line program: p_k follows Equation (1) directly.
	p, err := isa.Assemble("straight", "add r1, r2, r3\nadd r4, r1, r2\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := cfg.NewProfile(g)
	c, _ := cpu.New(p, cpu.DefaultConfig())
	obs := pr.Observer()
	if _, err := c.Run(obs); err != nil {
		t.Fatal(err)
	}
	cond := &Conditionals{
		PC: []float64{0.01, 0.02, 0.005},
		PE: []float64{0.5, 0.4, 0.3},
	}
	scc := cfg.ComputeSCC(g, pr)
	m, err := ComputeMarginals(g, pr, scc, cond)
	if err != nil {
		t.Fatal(err)
	}
	// p0 = pe0 (flushed start, p_in = 1).
	want0 := 0.5
	want1 := 0.4*want0 + 0.02*(1-want0)
	want2 := 0.3*want1 + 0.005*(1-want1)
	for i, want := range []float64{want0, want1, want2} {
		if math.Abs(m.P[i]-want) > 1e-12 {
			t.Errorf("P[%d]=%v, want %v", i, m.P[i], want)
		}
	}
}

func TestSetWorkingPeriodRaisesErrorProbability(t *testing.T) {
	m := testMachine(t)
	dpSlow, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	origPeriod := m.WorkingPeriodPs
	defer m.SetWorkingPeriod(origPeriod)
	m.SetWorkingPeriod(origPeriod * 0.95) // higher frequency
	dpFast, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dpFast.AdderFail[32] <= dpSlow.AdderFail[32] {
		t.Errorf("overclocking should raise failure probability: %v vs %v",
			dpFast.AdderFail[32], dpSlow.AdderFail[32])
	}
}
