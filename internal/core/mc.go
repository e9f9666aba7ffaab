package core

import (
	"context"
	"math"

	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/montecarlo"
)

// MCValidation is the outcome of a sharded Monte Carlo validation run: the
// Kolmogorov distance between the empirical error-count law and the analytic
// Equation (14) CDF, checked against the Section 5 approximation bounds (plus
// a DKW-style sampling-noise allowance). The moments come from the streaming
// per-chunk combiner, not a second pass over the counts.
type MCValidation struct {
	// Trials and Chunks describe the sharded run.
	Trials int    `json:"trials"`
	Chunks int    `json:"chunks"`
	Seed   uint64 `json:"seed"`
	// Mean and Std are the sampled error-count moments (streaming merge).
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// LambdaRef is the reference estimate's mean error count over the
	// simulated (unscaled) program.
	LambdaRef float64 `json:"lambda_ref"`
	// MaxCDFDistance is the worst |empirical - analytic| over the count range.
	MaxCDFDistance float64 `json:"max_cdf_distance"`
	// Bound is DKLambda + DKCount of the reference estimate plus the
	// sampling-noise slack the comparison allows.
	Bound float64 `json:"bound"`
	// Within reports MaxCDFDistance <= Bound.
	Within bool `json:"within"`
	// UnscaledReference is set when ScaleToInsts scaled the estimate and the
	// comparison therefore rebuilt an unscaled reference estimate.
	UnscaledReference bool `json:"unscaled_reference,omitempty"`
}

// validateMC runs the sharded Monte Carlo validation against the surviving
// scenarios. ref mirrors the surviving scenarios with pre-scaling profiles
// substituted where Scale() was applied (see mcRef in AnalyzeWithOpts); the
// simulation executes the real program, so when scaling inflated the estimate
// an unscaled reference estimate is solved for the comparison, and otherwise
// the already computed estimate is reused. datasets[i] is the scenario index
// of survivor i: a degraded run simulates each survivor on its own dataset,
// not on the dataset at its position among the survivors.
func (f *Framework) validateMC(ctx context.Context, spec ProgramSpec, cfgCPU cpu.Config, g *cfg.Graph, est *Estimate, ref []Scenario, datasets []int, unscaled bool, opts AnalyzeOpts) (*MCValidation, error) {
	refEst := est
	if unscaled {
		var err error
		refEst, err = NewEstimate(ctx, g, ref)
		if err != nil {
			return nil, err
		}
	}
	conds := make([]*errormodel.Conditionals, len(ref))
	for i := range ref {
		conds[i] = ref[i].Cond
	}
	setup := spec.Setup
	if setup != nil {
		setup = func(c *cpu.CPU, i int) error { return spec.Setup(c, datasets[i]) }
	}
	res, err := montecarlo.RunSharded(ctx, montecarlo.Spec{
		Prog:      spec.Prog,
		Setup:     setup,
		Cond:      conds,
		Trials:    opts.MCTrials,
		Seed:      opts.MCSeed,
		CPUConfig: cfgCPU,
	}, montecarlo.ShardOpts{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}

	ecdf := res.CDF()
	worst := 0.0
	for k := 0.0; k < refEst.LambdaMean*4+10; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d := math.Abs(ecdf(k) - refEst.ErrorCountCDF(k)); d > worst {
			worst = d
		}
	}
	// DKW-style noise allowance on top of the analytic bounds, matching the
	// montecarlo package's own validation tests.
	slack := 2.5 / math.Sqrt(float64(opts.MCTrials))
	bound := refEst.DKLambda + refEst.DKCount + slack
	return &MCValidation{
		Trials:            opts.MCTrials,
		Chunks:            res.Chunks,
		Seed:              opts.MCSeed,
		Mean:              res.Stats.Mean,
		Std:               res.Stats.Std(),
		LambdaRef:         refEst.LambdaMean,
		MaxCDFDistance:    worst,
		Bound:             bound,
		Within:            worst <= bound,
		UnscaledReference: unscaled,
	}, nil
}

// mcRefScenarios builds the reference scenario list for validateMC from the
// surviving scenarios and their retained pre-scaling profiles. The second
// return reports whether any substitution happened (i.e. the reference
// estimate differs from the report's).
func mcRefScenarios(surviving []Scenario, unscaledProfiles []*cfg.Profile) ([]Scenario, bool) {
	ref := make([]Scenario, len(surviving))
	copy(ref, surviving)
	any := false
	for i, pr := range unscaledProfiles {
		if pr != nil {
			ref[i].Profile = pr
			any = true
		}
	}
	return ref, any
}
