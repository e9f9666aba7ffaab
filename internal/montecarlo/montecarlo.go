// Package montecarlo implements the baseline the paper compares its
// statistical estimator against conceptually: direct Monte Carlo simulation
// of the program's timing-error process. Each trial walks one retirement of
// the program and flips one Bernoulli per retired instruction, with success
// probability p^e or p^c depending on whether the previous instruction erred
// — the exact Markov dependence structure the error-correction mechanism
// induces (Section 4.1). The paper notes this baseline is too slow for large
// datasets; here it validates the Poisson/Normal approximations on small
// programs, inside the Chen-Stein and Stein bounds.
//
// A scenario retires the same instruction sequence in every trial: the
// error draws do not feed back into the program. So a run executes each
// scenario once, records its static-index sequence, and every trial walks
// that sequence (4 bytes per retirement per scenario) instead of
// re-executing the program.
package montecarlo

import (
	"context"
	"fmt"
	"sort"

	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/numeric"
	"tsperr/internal/pool"
)

// Spec describes one Monte Carlo experiment.
type Spec struct {
	Prog *isa.Program
	// Setup seeds machine state for a scenario (input dataset).
	Setup func(c *cpu.CPU, scenario int) error
	// Cond holds the per-scenario conditional probabilities; its length is
	// the number of scenarios.
	Cond []*errormodel.Conditionals
	// Trials is the number of simulated executions (spread round-robin over
	// scenarios).
	Trials int
	// Seed makes the experiment reproducible.
	Seed uint64
	// CPUConfig overrides the machine configuration (zero = default).
	CPUConfig cpu.Config
}

// Result holds the sampled error counts.
type Result struct {
	Counts []float64
	// Instructions is the per-run dynamic instruction count (last run).
	Instructions int64
}

// Run executes the experiment on one RNG stream, trial after trial.
func Run(spec Spec) (*Result, error) {
	seqs, err := record(context.Background(), spec, 1)
	if err != nil {
		return nil, err
	}
	rng := numeric.NewRNG(spec.Seed)
	res := &Result{Counts: make([]float64, spec.Trials)}
	for t := range res.Counts {
		res.Counts[t] = walk(seqs, spec.Cond, t, rng)
	}
	res.Instructions = lastInstructions(spec, seqs)
	return res, nil
}

// record validates the spec, runs every scenario the trials visit once on a
// pool of workers, and returns each one's retirement sequence: the static
// index of every retired instruction, in retirement order. A failing
// scenario does not cancel the others, so the error returned is the first
// failing scenario's own, never a cancellation it caused.
func record(ctx context.Context, spec Spec, workers int) ([][]int32, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("montecarlo: non-positive trials")
	}
	if len(spec.Cond) == 0 {
		return nil, fmt.Errorf("montecarlo: no scenarios")
	}
	cfgCPU := spec.CPUConfig
	if cfgCPU.MemWords == 0 {
		cfgCPU = cpu.DefaultConfig()
	}
	seqs := make([][]int32, min(spec.Trials, len(spec.Cond)))
	errs := make([]error, len(seqs))
	pool.Run(ctx, len(seqs), workers, false, errs, func(ctx context.Context, s int) error {
		machine, err := cpu.New(spec.Prog, cfgCPU)
		if err != nil {
			return err
		}
		defer machine.Release()
		if spec.Setup != nil {
			if err := spec.Setup(machine, s); err != nil {
				return err
			}
		}
		var seq []int32
		_, err = machine.RunBatched(ctx, func(ds []cpu.DynInst) {
			for i := range ds {
				seq = append(seq, int32(ds[i].Index))
			}
		})
		seqs[s] = seq
		return err
	})
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	return seqs, nil
}

// walk samples the error count of global trial t (which fixes the scenario
// as t mod len(cond)) along that scenario's recorded sequence, with one draw
// from rng per retired instruction. The caller owns the RNG, so a chunk's
// stream is whatever generator it hands in.
func walk(seqs [][]int32, cond []*errormodel.Conditionals, t int, rng *numeric.RNG) float64 {
	s := t % len(cond)
	pc, pe := cond[s].PC, cond[s].PE
	errors := 0
	errState := true // the processor starts flushed: p^in = 1
	for _, i := range seqs[s] {
		p := pc[i]
		if errState {
			p = pe[i]
		}
		errState = rng.Float64() < p
		if errState {
			errors++
		}
	}
	return float64(errors)
}

// lastInstructions is the dynamic instruction count of the spec's last
// trial.
func lastInstructions(spec Spec, seqs [][]int32) int64 {
	return int64(len(seqs[(spec.Trials-1)%len(spec.Cond)]))
}

// CDF returns the empirical CDF of the sampled counts.
func (r *Result) CDF() func(float64) float64 {
	s := make([]float64, len(r.Counts))
	copy(s, r.Counts)
	sort.Float64s(s)
	n := float64(len(s))
	return func(x float64) float64 {
		i := sort.SearchFloat64s(s, x+0.5) // counts are integers
		return float64(i) / n
	}
}

// Mean returns the sample mean error count.
func (r *Result) Mean() float64 { return numeric.Mean(r.Counts) }

// Std returns the sample standard deviation.
func (r *Result) Std() float64 { return numeric.StdDev(r.Counts) }
