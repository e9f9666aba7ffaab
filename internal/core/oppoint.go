package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
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

// AnalyzeAtRatio analyzes the program at the given frequency ratio
// (speculative over baseline): the clock period BasePeriodPs/ratio is passed
// down the pipeline with the datapath model trained at it, which the
// framework trains once per period and keeps (see datapathStore).
// Concurrent analyses at any ratios may share the framework, and a later
// Analyze is bit-identical to one on a framework that never saw another
// ratio. A ratio whose period is bit-identical to the working period is the
// plain AnalyzeWithOpts, with its trained datapath model.
func (f *Framework) AnalyzeAtRatio(ctx context.Context, name string, spec ProgramSpec, ratio float64, opts AnalyzeOpts) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !(ratio > 0) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("core: non-positive ratio %v", ratio)
	}
	period := f.Machine.BasePeriodPs / ratio
	if math.Float64bits(period) == math.Float64bits(f.Machine.WorkingPeriodPs) {
		return f.AnalyzeWithOpts(ctx, name, spec, opts)
	}
	dp, err := f.periodModels.at(ctx, f.Machine, period)
	if err != nil {
		return nil, err
	}
	return f.analyze(ctx, name, spec, opts, period, dp)
}

// periodModelLimit bounds the datapath models a framework keeps for periods
// other than its working one. It is the number of non-working ratios on the
// default operating-point grid of tsperr and tsperrd, 1.0 to 1.3 in 16
// steps: of its 17 ratios, the midpoint 1.15 gives the working period bit
// for bit, so a framework serving default searches keeps every model it
// trains. A larger grid (up to 256 steps) evicts, least recently used first:
// every search probes the slow end and every bisecting one the fast end and
// the midpoint too, so those stay kept.
const periodModelLimit = 16

// datapathStore keeps trained datapath models by the float bits of their
// clock period, dropping the least recently used once periodModelLimit are
// kept. A model is a pure function of the machine and the period, so a kept
// one is the model a new training would return. Callers asking for a period
// whose training is in flight wait for it; a training that fails or is
// cancelled is not kept, and its waiters train again under their own
// contexts.
type datapathStore struct {
	mu       sync.Mutex
	byPeriod map[uint64]*datapathTraining // guarded by mu
	// lru lists the periods of the kept models, least recently used first;
	// guarded by mu.
	lru []uint64
}

// datapathTraining is one training. dp is nil while it runs and set, under
// the store's lock, when it succeeds; done is closed when it ends either way.
type datapathTraining struct {
	done chan struct{}
	dp   *errormodel.DatapathModel // guarded by mu, the store's lock
}

// at returns the datapath model trained at period, training it on first use.
func (s *datapathStore) at(ctx context.Context, m *errormodel.Machine, period float64) (*errormodel.DatapathModel, error) {
	key := math.Float64bits(period)
	for {
		s.mu.Lock()
		t, ok := s.byPeriod[key]
		switch {
		case !ok:
			if s.byPeriod == nil {
				s.byPeriod = map[uint64]*datapathTraining{}
			}
			t = &datapathTraining{done: make(chan struct{})}
			s.byPeriod[key] = t
			s.mu.Unlock()
			return s.train(ctx, m, period, key, t)
		case t.dp != nil:
			// Move key to the most recently used end.
			for i, k := range s.lru {
				if k == key {
					copy(s.lru[i:], s.lru[i+1:])
					s.lru[len(s.lru)-1] = key
					break
				}
			}
			dp := t.dp
			s.mu.Unlock()
			return dp, nil
		}
		s.mu.Unlock()
		select {
		case <-t.done: // look again: kept, or dropped and trained anew
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// train runs t, keeping its model on success and dropping t otherwise.
func (s *datapathStore) train(ctx context.Context, m *errormodel.Machine, period float64, key uint64, t *datapathTraining) (dp *errormodel.DatapathModel, err error) {
	defer func() {
		s.mu.Lock()
		if dp == nil || err != nil {
			delete(s.byPeriod, key)
		} else {
			t.dp = dp
			s.lru = append(s.lru, key)
			if len(s.lru) > periodModelLimit {
				delete(s.byPeriod, s.lru[0])
				s.lru = append(s.lru[:0], s.lru[1:]...)
			}
		}
		s.mu.Unlock()
		close(t.done)
	}()
	return m.TrainDatapathWorkers(ctx, 0, period)
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
