package surrogate

import (
	"fmt"
	"math"
	"sort"

	"tsperr/internal/mlpred"
	"tsperr/internal/numeric"
)

// Offline evaluation of the coverage-vs-accuracy tradeoff: train on one
// split of labeled samples, sweep the confidence bound over the held-out
// split, and report, per bound, how much traffic the gate would serve and
// how accurate the served answers would be. This is what
// `tsperr surrogate-eval` prints and what the acceptance test pins
// (held-out MAE within the documented budget).

// EvalSample is one labeled request: its features and the exact pipeline's
// log10 mean error rate, tagged with the request identity for reporting.
type EvalSample struct {
	Name      string
	Scenarios int
	Features  []float64
	Log10Rate float64
}

// CurvePoint is one bound on the coverage-vs-accuracy curve.
type CurvePoint struct {
	// Bound is the gate's MaxStd setting being evaluated.
	Bound float64
	// Coverage is the fraction of held-out requests the gate would serve.
	Coverage float64
	// MAE is the mean absolute log10 error over the served requests
	// (0 when none are served).
	MAE float64
	// MaxErr is the worst served absolute log10 error.
	MaxErr float64
	// Served counts the held-out requests under the bound.
	Served int
}

// EvalResult is the outcome of one train/held-out evaluation.
type EvalResult struct {
	// TrainN/TestN are the split sizes.
	TrainN, TestN int
	// MAE is the mean absolute log10 error over ALL held-out samples,
	// ungated — the raw model accuracy.
	MAE float64
	// GatedMAE and GatedCoverage evaluate the configured MaxStd bound.
	GatedMAE      float64
	GatedCoverage float64
	// Curve sweeps the supplied bounds, ascending.
	Curve []CurvePoint
}

// Eval trains a forest on a deterministic (seed-driven) shuffle-split of
// the samples and evaluates the held-out fraction. holdout is the test
// fraction (0 selects 0.3); bounds may be nil to skip the curve.
func Eval(samples []EvalSample, cfg Config, bounds []float64, holdout float64, seed uint64) (*EvalResult, error) {
	cfg = cfg.withDefaults()
	if holdout <= 0 {
		holdout = 0.3
	}
	if holdout >= 1 {
		return nil, fmt.Errorf("surrogate: holdout fraction %g must be < 1", holdout)
	}
	n := len(samples)
	testN := int(math.Round(float64(n) * holdout))
	if testN < 1 {
		testN = 1
	}
	if n-testN < 2 {
		return nil, fmt.Errorf("surrogate: %d samples leave no training split at holdout %g", n, holdout)
	}

	// Deterministic shuffle: the split depends only on (samples, seed).
	perm := numeric.NewRNG(seed).Perm(n)
	shuffled := make([]EvalSample, n)
	for i, p := range perm {
		shuffled[i] = samples[p]
	}
	test, train := shuffled[:testN], shuffled[testN:]

	regs := make([]mlpred.RegSample, len(train))
	for i, s := range train {
		regs[i] = mlpred.RegSample{Features: s.Features, Target: s.Log10Rate}
	}
	forest, err := mlpred.TrainRegForest(regs, cfg.Trees,
		mlpred.Config{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("surrogate: eval training: %w", err)
	}

	res := &EvalResult{TrainN: len(train), TestN: len(test)}
	type scored struct{ std, absErr float64 }
	preds := make([]scored, len(test))
	var sumAbs numeric.KahanSum
	for i, s := range test {
		mean, std := forest.Predict(s.Features)
		e := math.Abs(mean - s.Log10Rate)
		preds[i] = scored{std: std, absErr: e}
		sumAbs.Add(e)
	}
	res.MAE = sumAbs.Value() / float64(len(test))

	pointAt := func(bound float64) CurvePoint {
		pt := CurvePoint{Bound: bound}
		var sum numeric.KahanSum
		for _, p := range preds {
			if !(p.std <= bound) {
				continue
			}
			pt.Served++
			sum.Add(p.absErr)
			if p.absErr > pt.MaxErr {
				pt.MaxErr = p.absErr
			}
		}
		if pt.Served > 0 {
			pt.Coverage = float64(pt.Served) / float64(len(test))
			pt.MAE = sum.Value() / float64(pt.Served)
		}
		return pt
	}

	gated := pointAt(cfg.MaxStd)
	res.GatedMAE, res.GatedCoverage = gated.MAE, gated.Coverage

	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	for _, b := range sorted {
		res.Curve = append(res.Curve, pointAt(b))
	}
	return res, nil
}
