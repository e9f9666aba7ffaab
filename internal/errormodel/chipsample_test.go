package errormodel

import (
	"context"
	"math"
	"testing"

	"tsperr/internal/numeric"
)

// TestChipSampleValidatesSSTAProbability closes the loop on the whole SSTA
// chain: the analytic failure probability of the trained datapath model —
// P(DTS < 0) computed from the canonical Gaussian slack form — must match
// the frequency of negative slack over explicitly sampled manufactured dies.
func TestChipSampleValidatesSSTAProbability(t *testing.T) {
	m := testMachine(t)
	table, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dp := table.At(m.AnalysisPeriodPs)
	rng := numeric.NewRNG(61)
	for _, depth := range []int{31, 32} {
		slack := table.Adder[depth].AddConst(m.AnalysisPeriodPs)
		want := dp.AdderFail[depth]
		if want == 0 {
			continue
		}
		const chips = 60000
		fails := 0
		for i := 0; i < chips; i++ {
			chip := m.Model.SampleChip(rng)
			if slack.Sample(chip, rng) < 0 {
				fails++
			}
		}
		got := float64(fails) / chips
		se := math.Sqrt(want*(1-want)/chips) + 1e-6
		if math.Abs(got-want) > 6*se+0.002 {
			t.Errorf("depth %d: sampled failure rate %v vs analytic %v (se %v)",
				depth, got, want, se)
		}
	}
}

// TestSpatialCorrelationInflatesJointFailure verifies the property the paper
// names explicitly: nearby paths fail together. Two copies of the deepest
// slack form share principal components, so the joint failure probability
// exceeds the independence product.
func TestSpatialCorrelationInflatesJointFailure(t *testing.T) {
	m := testMachine(t)
	table, err := m.TrainDatapath(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	slack := table.Adder[32].AddConst(m.AnalysisPeriodPs)
	p := table.At(m.AnalysisPeriodPs).AdderFail[32]
	if p <= 0 {
		t.Skip("full chain does not fail at this operating point")
	}
	rng := numeric.NewRNG(62)
	const chips = 80000
	both := 0
	for i := 0; i < chips; i++ {
		chip := m.Model.SampleChip(rng)
		// Two instructions activating the same chain on the same die: the
		// correlated (PC) part is shared, the residual is redrawn.
		a := slack.Sample(chip, rng) < 0
		b := slack.Sample(chip, rng) < 0
		if a && b {
			both++
		}
	}
	joint := float64(both) / chips
	indep := p * p
	if joint <= indep {
		t.Errorf("joint failure %v should exceed independence product %v", joint, indep)
	}
}
