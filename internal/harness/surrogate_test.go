package harness

import (
	"context"
	"testing"

	"tsperr/internal/surrogate"
)

// evalSamplesOnce caches the exact-pipeline sweep shared by the surrogate
// acceptance tests (48 warm analyses; a few seconds total).
var evalSamplesCache []surrogate.EvalSample

func evalSamples(ctx context.Context, t *testing.T) []surrogate.EvalSample {
	t.Helper()
	if evalSamplesCache == nil {
		samples, err := nominal.SurrogateEvalSamples(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		evalSamplesCache = samples
	}
	return evalSamplesCache
}

// TestSurrogateHeldOutAccuracy is the accuracy acceptance criterion: over
// the benchmark suite's labeled sweep, surrogate answers on a held-out split
// carry a mean absolute log10 error of at most 0.3 (a factor of 2 in rate).
func TestSurrogateHeldOutAccuracy(t *testing.T) {
	samples := evalSamples(context.Background(), t)
	if len(samples) < 24 {
		t.Fatalf("only %d labeled samples from the suite", len(samples))
	}
	res, err := surrogate.Eval(samples, surrogate.Config{Fingerprint: "eval"},
		[]float64{0.1, 0.25, 0.5}, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("train=%d test=%d heldout MAE=%.3f gated MAE=%.3f coverage=%.2f",
		res.TrainN, res.TestN, res.MAE, res.GatedMAE, res.GatedCoverage)
	if res.MAE > 0.3 {
		t.Errorf("held-out MAE = %.3f, want <= 0.3", res.MAE)
	}
	// The gate can only improve accuracy over the ungated model.
	if res.GatedCoverage > 0 && res.GatedMAE > res.MAE+1e-9 {
		t.Errorf("gated MAE %.3f worse than ungated %.3f", res.GatedMAE, res.MAE)
	}
}

// TestSurrogateGateHonestyOnSuite is the gate-honesty acceptance criterion:
// with the gate enabled over the benchmark suite, EVERY request whose
// prediction uncertainty exceeds the bound escalates to the exact tier, and
// every served answer's reported uncertainty is within the bound it claims.
func TestSurrogateGateHonestyOnSuite(t *testing.T) {
	samples := evalSamples(context.Background(), t)
	fw, err := nominal.Framework(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tier, err := surrogate.New(surrogate.Config{Fingerprint: "honesty", MaxStd: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		tier.Observe(s.Features, s.Log10Rate)
	}
	if err := tier.Retrain(); err != nil {
		t.Fatal(err)
	}
	adapter := NewSurrogateAdapter(fw, tier)

	served, escalated := 0, 0
	// Sweep beyond the training grid (including unseen scenario counts).
	for _, sc := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		for _, s := range samples {
			if s.Scenarios != samples[0].Scenarios {
				continue // one sweep per benchmark, not per training sample
			}
			d := adapter.Decide(s.Name, sc, 0)
			if d.Serve {
				served++
				if d.Meta == nil {
					t.Fatalf("%s/%d served without metadata", s.Name, sc)
				}
				if !(d.Meta.StdLog10 <= d.Meta.Bound) {
					t.Fatalf("%s/%d served with std %.3f > bound %.3f",
						s.Name, sc, d.Meta.StdLog10, d.Meta.Bound)
				}
			} else {
				escalated++
				if d.Reason == surrogate.ReasonServed {
					t.Fatalf("%s/%d escalated with reason %q", s.Name, sc, d.Reason)
				}
				if d.Reason == surrogate.ReasonUncertain && d.Meta != nil &&
					d.Meta.StdLog10 <= d.Meta.Bound {
					t.Fatalf("%s/%d escalated as uncertain with std %.3f <= bound %.3f",
						s.Name, sc, d.Meta.StdLog10, d.Meta.Bound)
				}
			}
		}
	}
	if served == 0 {
		t.Error("gate served nothing on the training distribution; bound miscalibrated")
	}
	t.Logf("served %d, escalated %d across the sweep", served, escalated)
}

// TestSurrogateAdapterUnknownBenchmark: names the suite does not know
// escalate as untrained and are never observed.
func TestSurrogateAdapterUnknownBenchmark(t *testing.T) {
	fw, err := nominal.Framework(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tier, err := surrogate.New(surrogate.Config{Fingerprint: "unknown"})
	if err != nil {
		t.Fatal(err)
	}
	adapter := NewSurrogateAdapter(fw, tier)
	if d := adapter.Decide("no-such-benchmark", 4, 0); d.Serve || d.Reason != surrogate.ReasonUntrained {
		t.Errorf("unknown benchmark decision = %+v", d)
	}
	if _, ok := adapter.Observe("no-such-benchmark", 4, nil); ok {
		t.Error("unknown benchmark produced an observation")
	}
	if st := adapter.Stats(); st.Buffered != 0 {
		t.Errorf("unknown benchmark buffered an observation: %+v", st)
	}
}
