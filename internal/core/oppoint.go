package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tsperr/internal/cell"
	"tsperr/internal/cpu"
)

// OperatingPoint is the outcome of one SelectOperatingPoint search.
type OperatingPoint struct {
	// Feasible reports whether any grid ratio met the target; when false the
	// point describes the infeasible low end of the grid.
	Feasible bool
	// Ratio is the fastest (largest) grid ratio whose error rate meets the
	// target, speculative over baseline frequency.
	Ratio float64
	// ErrorRate is the estimated mean error rate at Ratio.
	ErrorRate float64
	// Speedup is the expected performance relative to baseline under the
	// replay-at-half-frequency model.
	Speedup float64
	// CDFBelowBreakEven is the probability the program's error rate stays
	// below this point's break-even (a risk measure: high means speculation
	// is reliably profitable across chips and inputs).
	CDFBelowBreakEven float64
	// Evals is how many ratios the search analyzed.
	Evals int
}

// AnalyzeAt analyzes the program at operating condition cond and frequency
// ratio ratio (speculative over baseline): at the clock period
// Machine.PeriodPs, with the datapath model at it, which the framework's
// period-free table gives without training. The engines carry the relative
// sigma of the framework's own condition, so cond must have its
// SigmaFactor: a condition at the framework's voltage, at any temperature.
// Analyses at any points may share the framework concurrently, and each is
// bit-identical to one on a fresh framework. A point at the machine's
// analysis period is the plain AnalyzeWithOpts.
func (f *Framework) AnalyzeAt(ctx context.Context, name string, spec ProgramSpec, cond cell.OperatingCondition, ratio float64, opts AnalyzeOpts) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !(ratio > 0) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("core: non-positive ratio %v", ratio)
	}
	if err := cond.Validate(); err != nil {
		return nil, err
	}
	own := f.Machine.Opts.Cond
	if math.Float64bits(cond.SigmaFactor()) != math.Float64bits(own.SigmaFactor()) {
		return nil, fmt.Errorf("core: condition %v is not at the voltage of the framework's %v", cond, own)
	}
	period := f.Machine.PeriodPs(cond, ratio)
	dp := f.Datapath
	if math.Float64bits(period) != math.Float64bits(f.Machine.AnalysisPeriodPs) {
		dp = f.table.At(period)
	}
	return f.analyze(ctx, name, spec, opts, period, dp)
}

// MaxBisectSteps bounds the quantized ratio grid of SelectOperatingPoint;
// 2^20 grid intervals resolve a frequency ratio to ~1e-6, far below model
// fidelity.
const MaxBisectSteps = 1 << 20

// ErrBadSearch is the cause of every SelectOperatingPoint argument error (a
// bad ratio range, step count, or target), so a caller can tell a request it
// should reject from an analysis that failed.
var ErrBadSearch = errors.New("core: bad operating-point search")

// SelectOperatingPoint finds the fastest frequency ratio meeting a target
// error rate on the quantized grid {lo + i*(hi-lo)/steps : i = 0..steps} —
// the per-application operating point selection of the authors' companion
// work (Assare & Gupta, ICCD 2016), driven by the error-rate estimator.
// analyze returns the report at one ratio and must be deterministic; the
// search assumes the error rate is monotone non-decreasing in the ratio
// (physically: a shorter clock period can only add timing errors).
//
// The search is index bisection, so the probe sequence depends only on the
// analyzed rates, which makes the result invariant to caller-side concerns
// like cache warmth or the order a surrounding grid is walked in. Only the
// report of the current best ratio is kept, and the returned point's speedup
// and P(profitable) come from it: the report that decided the search.
func SelectOperatingPoint(ctx context.Context, lo, hi float64, steps int, target float64, analyze func(context.Context, float64) (*Report, error)) (OperatingPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !(lo > 0) || !(hi >= lo) || math.IsInf(hi, 0) {
		return OperatingPoint{}, fmt.Errorf("%w: ratio range [%v, %v]", ErrBadSearch, lo, hi)
	}
	if steps < 1 || steps > MaxBisectSteps {
		return OperatingPoint{}, fmt.Errorf("%w: steps %d outside [1, %d]", ErrBadSearch, steps, MaxBisectSteps)
	}
	if !(target >= 0 && target <= 1) {
		return OperatingPoint{}, fmt.Errorf("%w: target error rate %v outside [0, 1]", ErrBadSearch, target)
	}
	ratioAt := func(i int) float64 {
		if i == steps {
			return hi
		}
		return lo + (hi-lo)*float64(i)/float64(steps)
	}
	evals := 0
	probe := func(i int) (*Report, error) {
		ratio := ratioAt(i)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: bisection aborted at ratio %v: %w", ratio, err)
		}
		evals++
		rep, err := analyze(ctx, ratio)
		if err == nil && (rep == nil || rep.Estimate == nil) {
			err = fmt.Errorf("core: analysis at ratio %v returned no estimate", ratio)
		}
		return rep, err
	}
	meets := func(rep *Report) bool { return rep.Estimate.MeanErrorRate() <= target }
	point := func(rep *Report, i int, feasible bool) OperatingPoint {
		ratio, er := ratioAt(i), rep.Estimate.MeanErrorRate()
		pm := cpu.PerfModel{FreqRatio: ratio, BaseCPI: 1, Scheme: cpu.ReplayHalfFrequency}
		return OperatingPoint{
			Feasible:          feasible,
			Ratio:             ratio,
			ErrorRate:         er,
			Speedup:           pm.Speedup(er),
			CDFBelowBreakEven: rep.Estimate.ErrorRateCDF(pm.BreakEvenErrorRate()),
			Evals:             evals,
		}
	}
	// The slow end must be feasible for the search to mean anything.
	best, err := probe(0)
	if err != nil {
		return OperatingPoint{}, err
	}
	if !meets(best) {
		return point(best, 0, false), nil
	}
	// Fast path: the whole range may be feasible.
	rep, err := probe(steps)
	if err != nil {
		return OperatingPoint{}, err
	}
	if meets(rep) {
		return point(rep, steps, true), nil
	}
	// Invariant: grid index good is feasible with report best, bad is not;
	// good < bad.
	good, bad := 0, steps
	for bad-good > 1 {
		mid := good + (bad-good)/2
		rep, err := probe(mid)
		if err != nil {
			return OperatingPoint{}, err
		}
		if meets(rep) {
			good, best = mid, rep
		} else {
			bad = mid
		}
	}
	return point(best, good, true), nil
}
