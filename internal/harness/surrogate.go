package harness

import (
	"context"
	"fmt"
	"math"

	"tsperr/internal/core"
	"tsperr/internal/mibench"
	"tsperr/internal/server"
	"tsperr/internal/surrogate"
)

// SurrogateAdapter binds the surrogate fast tier to the benchmark suite and
// a framework: it resolves a benchmark name to its program, derives
// the pre-simulation feature vector through core.SurrogateFeatures, and
// translates between the tier's feature-space API and the serving layer's
// name-based one. It implements server.SurrogateTier.
type SurrogateAdapter struct {
	fw   *core.Framework
	tier *surrogate.Tier
}

var _ server.SurrogateTier = (*SurrogateAdapter)(nil)

// NewSurrogateAdapter wraps a tier around a framework.
func NewSurrogateAdapter(fw *core.Framework, tier *surrogate.Tier) *SurrogateAdapter {
	return &SurrogateAdapter{fw: fw, tier: tier}
}

// Tier exposes the wrapped tier (the daemon quiesces it on shutdown).
func (a *SurrogateAdapter) Tier() *surrogate.Tier { return a.tier }

// features resolves a benchmark name to its fast-tier feature vector; ok is
// false for unknown benchmarks (the exact pipeline will reject them with a
// proper error).
func (a *SurrogateAdapter) features(benchmark string, scenarios int) ([]float64, bool) {
	b, err := mibench.ByName(benchmark)
	if err != nil {
		return nil, false
	}
	if scenarios <= 0 {
		scenarios = DefaultScenarios
	}
	return a.fw.SurrogateFeatures(b.Prog, scenarios), true
}

// Decide runs the confidence gate for one request (server.SurrogateTier).
func (a *SurrogateAdapter) Decide(benchmark string, scenarios int, threshold float64) server.SurrogateDecision {
	feats, ok := a.features(benchmark, scenarios)
	if !ok {
		return server.SurrogateDecision{Reason: surrogate.ReasonUntrained}
	}
	d := a.tier.Decide(feats, threshold)
	out := server.SurrogateDecision{Serve: d.Serve, Reason: d.Reason}
	if d.Pred != nil {
		out.Meta = &core.SurrogateMeta{
			PredictedErrorRate: d.Pred.Rate,
			PredictedLog10:     d.Pred.Log10Rate,
			StdLog10:           d.Pred.Std,
			Bound:              a.tier.Bound(),
			ModelVersion:       d.Pred.ModelVersion,
			TrainSize:          d.Pred.TrainSize,
		}
	}
	return out
}

// Observe feeds one exact report back as a training observation and returns
// the shadow residual (server.SurrogateTier). The label is the report's
// log10 mean error rate; the server has already filtered degraded and
// zero-rate reports.
func (a *SurrogateAdapter) Observe(benchmark string, scenarios int, rep *core.Report) (float64, bool) {
	if rep == nil || rep.Estimate == nil {
		return 0, false
	}
	rate := rep.Estimate.MeanErrorRate()
	if !(rate > 0) {
		return 0, false
	}
	feats, ok := a.features(benchmark, scenarios)
	if !ok {
		return 0, false
	}
	return a.tier.Observe(feats, math.Log10(rate))
}

// Stats snapshots the tier's learning state (server.SurrogateTier).
func (a *SurrogateAdapter) Stats() server.SurrogateStats {
	st := a.tier.Stats()
	return server.SurrogateStats{
		ModelVersion: st.ModelVersion,
		TrainSize:    st.TrainSize,
		Buffered:     st.Buffered,
		Trainings:    st.Trainings,
	}
}

// DefaultEvalScenarioGrid is the scenario fan-out swept per benchmark by
// SurrogateEvalSamples: the spread exercises the scenario-count feature
// without multiplying runtime beyond a few minutes for the full suite.
var DefaultEvalScenarioGrid = []int{1, 2, 3, 4, 6, 8}

// SurrogateEvalSamples runs the exact pipeline over benchmarks x scenario
// grid and returns one labeled sample per run — the dataset behind
// `tsperr surrogate-eval` and the held-out accuracy acceptance test.
// Benchmarks whose estimate carries a zero mean rate are skipped (no log10
// label). A nil benchmark list selects the full suite; a nil grid selects
// DefaultEvalScenarioGrid.
func (e *Engine) SurrogateEvalSamples(ctx context.Context, benchmarks []string, grid []int) ([]surrogate.EvalSample, error) {
	if benchmarks == nil {
		for _, b := range mibench.All() {
			benchmarks = append(benchmarks, b.Name)
		}
	}
	if grid == nil {
		grid = DefaultEvalScenarioGrid
	}
	fw, err := e.Framework()
	if err != nil {
		return nil, err
	}
	var out []surrogate.EvalSample
	for _, name := range benchmarks {
		b, err := mibench.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, sc := range grid {
			rep, err := fw.AnalyzeWithOpts(ctx, b.Name, SpecFor(b, sc), core.AnalyzeOpts{})
			if err != nil {
				return nil, fmt.Errorf("harness: eval sample %s/%d: %w", name, sc, err)
			}
			rate := rep.Estimate.MeanErrorRate()
			if !(rate > 0) {
				continue
			}
			out = append(out, surrogate.EvalSample{
				Name:      b.Name,
				Scenarios: sc,
				Features:  fw.SurrogateFeatures(b.Prog, sc),
				Log10Rate: math.Log10(rate),
			})
		}
	}
	return out, nil
}
