package core

import (
	"math"

	"tsperr/internal/cfg"
	"tsperr/internal/isa"
	"tsperr/internal/numeric"
)

// Report tier labels. An empty Tier means the report predates the two-tier
// service (the wire schema omits it), which consumers read as exact.
const (
	// TierExact marks a report computed by the full simulate → activity →
	// DTA → Eq.(14) pipeline.
	TierExact = "exact"
	// TierSurrogate marks a report synthesized from the ML fast tier's
	// prediction; Surrogate carries the prediction metadata and Estimate is
	// nil (the surrogate predicts the headline rate, not the distribution).
	TierSurrogate = "surrogate"
)

// SurrogateMeta is the fast-tier prediction metadata attached to a
// surrogate-tier Report: what was predicted, how uncertain the model was,
// and the gate bound the prediction passed.
type SurrogateMeta struct {
	// PredictedErrorRate is the predicted mean error rate (fraction);
	// PredictedLog10 is its log10, the model's native output space.
	PredictedErrorRate float64 `json:"predicted_error_rate"`
	PredictedLog10     float64 `json:"predicted_log10"`
	// StdLog10 is the prediction's calibrated standard deviation in log10
	// units; Bound is the gate's maximum std for serving. StdLog10 <= Bound
	// by construction on every served prediction.
	StdLog10 float64 `json:"std_log10"`
	Bound    float64 `json:"bound"`
	// ModelVersion and TrainSize identify the forest that answered.
	ModelVersion int `json:"model_version"`
	TrainSize    int `json:"train_size"`
}

// NumSurrogateFeatures is the length of the SurrogateFeatures vector; it is
// part of the surrogate feature schema (bump modelcache's surrogate schema
// version when it changes).
const NumSurrogateFeatures = 18

// surrogateLogFloor bounds safeLog10: probabilities at or below 1e-30 are
// indistinguishable from "never fails" for an estimator whose useful range
// tops out around 1e-12.
const surrogateLogFloor = -30

// safeLog10 is log10 clamped to the feature floor for non-positive inputs,
// keeping the feature space finite where the tables hold exact zeros.
func safeLog10(x float64) float64 {
	if x <= 0 {
		return surrogateLogFloor
	}
	l := math.Log10(x)
	if l < surrogateLogFloor {
		return surrogateLogFloor
	}
	return l
}

// SurrogateFeatures computes the fast-tier feature vector for a program
// analyzed with the given scenario fan-out. Every feature is available
// BEFORE simulation — static program shape, the machine's operating point,
// and the trained per-unit failure tables — which is what makes the fast
// tier fast: a cache miss costs one static pass over the instruction list,
// not a pipeline run. The vector layout is versioned by
// NumSurrogateFeatures plus modelcache.SurrogateSchemaVersion.
func (f *Framework) SurrogateFeatures(prog *isa.Program, scenarios int) []float64 {
	feats := make([]float64, NumSurrogateFeatures)
	if prog == nil || len(prog.Insts) == 0 || scenarios <= 0 {
		return feats
	}
	n := len(prog.Insts)
	blocks := 1
	if g, err := cfg.Build(prog); err == nil {
		blocks = len(g.Blocks)
	}

	adder, shift, logic, mul, worstMean := f.staticOpMix(prog)
	other := n - adder - shift - logic - mul

	dp := f.Datapath
	feats[0] = math.Log10(float64(n))
	feats[1] = math.Log10(float64(scenarios))
	feats[2] = math.Log10(float64(blocks))
	feats[3] = float64(adder) / float64(n)
	feats[4] = float64(shift) / float64(n)
	feats[5] = float64(logic) / float64(n)
	feats[6] = float64(mul) / float64(n)
	feats[7] = float64(other) / float64(n)
	feats[8] = f.Machine.WorkingPeriodPs / 1000
	feats[9] = f.Machine.Opts.WorkingRatio
	feats[10] = safeLog10(dp.LogicFail)
	feats[11] = safeLog10(dp.AdderFail[len(dp.AdderFail)-1])
	feats[12] = safeLog10(dp.ShiftFail[len(dp.ShiftFail)-1])
	feats[13] = safeLog10(dp.MulFail[len(dp.MulFail)-1])
	feats[14] = safeLog10(worstMean)
	full, period := f.table.Adder[len(f.table.Adder)-1], f.Machine.AnalysisPeriodPs
	feats[15] = (full.Mean + period) / period // the full chain's slack mean over the period
	// The operating condition is part of the feature space: a model trained
	// at one (V, T) point must not silently answer for another — predictions
	// from a differently-conditioned snapshot fail the feature-length or
	// fingerprint check and escalate to the exact tier instead.
	cond := f.Machine.Opts.Cond.Norm()
	feats[16] = cond.VoltageV
	feats[17] = cond.TempC / 100
	return feats
}

// staticOpMix scans the static instruction list once (pure math, no
// simulation — microseconds even for the largest benchmark) and returns the
// op-class counts plus the mean worst-case failure probability. Ops are
// classified the way the datapath model routes failure probabilities:
// adder-served ops (arithmetic, compares, memory addressing, branches),
// shifter, logic unit, multiplier; everything else (jumps, nop, halt) has no
// datapath timing model.
func (f *Framework) staticOpMix(prog *isa.Program) (adder, shift, logic, mul int, worstMean float64) {
	var worst numeric.KahanSum
	for _, in := range prog.Insts {
		switch in.Op {
		case isa.OpMul:
			mul++
		case isa.OpAdd, isa.OpAddi, isa.OpLw, isa.OpSw, isa.OpSub,
			isa.OpSlt, isa.OpSlti, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			adder++
		case isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlli, isa.OpSrli, isa.OpSrai:
			shift++
		case isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpLui:
			logic++
		}
		// Worst-case (deepest-activation) failure probability of each static
		// instruction: an upper envelope of what simulation can observe.
		worst.Add(f.Datapath.FailProb(in.Op, 32))
	}
	return adder, shift, logic, mul, worst.Value() / float64(len(prog.Insts))
}
