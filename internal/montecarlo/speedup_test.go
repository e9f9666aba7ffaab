package montecarlo_test

import (
	"math"
	"testing"

	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/montecarlo"
)

// The tests below check the timing-speculative machine's cycle budget from
// first principles: a Monte Carlo trial's error count plus one plain run's
// Stats is the whole budget, because every error costs the correction
// scheme's penalty on top of the baseline cycles. They reproduce the
// closed-form performance model speedup = ratio / (1 + penalty * errorRate).

const speedupLoop = `
	li r1, 200
	li r2, 0
loop:
	add  r2, r2, r1
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
`

// budget is the cycle budget of a number of speculative runs, summed.
type budget struct {
	instructions, errors, baseCycles int64
	// specCycles is baseCycles plus the scheme's penalty per error.
	specCycles float64
}

func (b budget) errorRate() float64 { return float64(b.errors) / float64(b.instructions) }

// speedup is the measured wall-clock speedup over the baseline: the
// speculative cycles run at ratio times the baseline frequency.
func (b budget) speedup(ratio float64) float64 {
	return float64(b.baseCycles) / (b.specCycles / ratio)
}

// speculate runs trials of the loop whose every instruction errs with
// probability p whatever its predecessor did, and charges scheme's penalty
// per sampled error.
func speculate(t *testing.T, p float64, scheme cpu.Correction, trials int, seed uint64) budget {
	t.Helper()
	prog, err := isa.Assemble("loop", speedupLoop)
	if err != nil {
		t.Fatal(err)
	}
	n := len(prog.Insts)
	cond := &errormodel.Conditionals{PC: make([]float64, n), PE: make([]float64, n)}
	for i := range cond.PC {
		cond.PC[i] = p
		cond.PE[i] = p
	}
	res, err := montecarlo.Run(montecarlo.Spec{Prog: prog, Cond: []*errormodel.Conditionals{cond}, Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	machine, err := cpu.New(prog, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Release()
	st, err := machine.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := budget{instructions: st.Instructions * int64(trials), baseCycles: st.Cycles * int64(trials)}
	for _, c := range res.Counts {
		b.errors += int64(c)
	}
	b.specCycles = float64(b.baseCycles) + float64(b.errors)*scheme.PenaltyCycles
	return b
}

func TestMeasuredSpeedupMatchesClosedForm(t *testing.T) {
	// The paper's performance formula assumes one cycle per instruction; the
	// simulator has hazards, so compare against the formula evaluated with
	// the measured base CPI.
	p := 0.004
	b := speculate(t, p, cpu.ReplayHalfFrequency, 400, 7)
	er := b.errorRate()
	if math.Abs(er-p) > 0.001 {
		t.Fatalf("measured error rate %v, want ~%v", er, p)
	}
	cpi := float64(b.baseCycles) / float64(b.instructions)
	pm := cpu.PerfModel{FreqRatio: 1.15, BaseCPI: cpi, Scheme: cpu.ReplayHalfFrequency}
	if got, want := b.speedup(1.15), pm.Speedup(er); math.Abs(got-want) > 0.002 {
		t.Errorf("measured speedup %v vs closed form %v", got, want)
	}
}

func TestZeroErrorsPureFrequencyGain(t *testing.T) {
	b := speculate(t, 0, cpu.ReplayHalfFrequency, 5, 1)
	if b.errors != 0 {
		t.Fatalf("%d errors, want none", b.errors)
	}
	if math.Abs(b.speedup(1.15)-1.15) > 1e-12 {
		t.Errorf("speedup = %v, want exactly the frequency ratio", b.speedup(1.15))
	}
}

func TestSchemePenaltyOrdering(t *testing.T) {
	var speeds []float64
	for _, scheme := range []cpu.Correction{
		cpu.ReplayHalfFrequency, cpu.PipelineFlush, cpu.SingleCycleReplay,
	} {
		speeds = append(speeds, speculate(t, 0.01, scheme, 200, 3).speedup(1.15))
	}
	if !(speeds[0] < speeds[1] && speeds[1] < speeds[2]) {
		t.Errorf("cheaper recovery must be faster: %v", speeds)
	}
}

func TestBreakEvenCrossoverObserved(t *testing.T) {
	// Below the break-even error rate the speculative machine wins; above it
	// it loses.
	if s := speculate(t, 0.001, cpu.ReplayHalfFrequency, 300, 5).speedup(1.15); s <= 1 {
		t.Errorf("0.1%% error rate should still win: %v", s)
	}
	if s := speculate(t, 0.03, cpu.ReplayHalfFrequency, 300, 5).speedup(1.15); s >= 1 {
		t.Errorf("3%% error rate should lose: %v", s)
	}
}

func TestErrorClusteringWithFlushConditioning(t *testing.T) {
	// The conditional switch is honored: with p^c = 0 and p^e = 1, the first
	// instruction errs (p^in = 1 at start, the pipeline is flushed), and so
	// does every instruction after it.
	prog, err := isa.Assemble("loop", speedupLoop)
	if err != nil {
		t.Fatal(err)
	}
	n := len(prog.Insts)
	cond := &errormodel.Conditionals{PC: make([]float64, n), PE: make([]float64, n)}
	for i := range cond.PE {
		cond.PE[i] = 1
	}
	res, err := montecarlo.Run(montecarlo.Spec{Prog: prog, Cond: []*errormodel.Conditionals{cond}, Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Counts[0]) != res.Instructions {
		t.Errorf("with p^e=1 every instruction should err: %v of %d", res.Counts[0], res.Instructions)
	}
}
