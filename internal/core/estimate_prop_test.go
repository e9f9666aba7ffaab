package core

import (
	"math"
	"testing"

	"tsperr/internal/dist"
	"tsperr/internal/numeric"
)

// The Equation (14) memo (initMixture) tabulates the nodes at or below the
// normal switch and keeps the nodes above it for per-query evaluation. This
// property test pins its equivalence with a direct, un-memoized
// composite-Simpson evaluation over seeded random lambda distributions,
// small ones and ones straddling dist.PoissonNormalSwitch, and query points
// down into the far lower tail: memoization must change the cost of the
// CDF, never its value — to 1e-9 relative, or 1e-15 absolute where the
// table drops each node's tail below 2^-60 of its mass.
func TestMixtureMemoMatchesDirectSimpson(t *testing.T) {
	rng := numeric.NewRNG(0x51b50)
	for i := 0; i < 80; i++ {
		mean := 0.5 + 200*rng.Float64()
		if i%4 == 3 {
			mean = 2000 + 6000*rng.Float64()
		}
		std := mean / 3 * rng.Float64()
		e := &Estimate{LambdaMean: mean, LambdaStd: std}

		g := numeric.Gaussian{Mean: mean, Std: std}
		lo := math.Max(0, mean-8*std)
		hi := mean + 8*std
		for j := 0; j < 8; j++ {
			k := math.Floor(4 * mean * rng.Float64())
			if j == 0 {
				k = math.Floor(mean / 4)
			}
			direct := numeric.Simpson(func(x float64) float64 {
				return g.PDF(x) * dist.Poisson{Lambda: x}.CDF(k)
			}, lo, hi, mixtureIntervals)
			if lo == 0 {
				direct += g.CDF(0)
			}
			direct = numeric.Clamp(direct, 0, 1)
			got := e.ErrorCountCDF(k)
			if d := math.Abs(got - direct); d > 1e-9*direct+1e-15 {
				t.Fatalf("case %d/%d: memoized CDF(%v) = %v, direct Simpson %v (diff %v, mean %v std %v)",
					i, j, k, got, direct, d, mean, std)
			}
		}
	}
}

// Above lambda = 745 the old term-by-term Poisson CDF started from an
// underflowed exp(-lambda) and read 0, so a low-count estimate's CDF sat at
// 0 below its top nodes and all three quantiles collapsed onto one value.
// Pin the shape a patricia-sized estimate must have: CDF(mean) near 1/2 and
// each quantile at its Cornish-Fisher value within about one error count.
// The mixed Poisson count has variance Var(lambda) + E[lambda] and third
// cumulant E[lambda] + 3 Var(lambda).
func TestLowCountQuantilesAboveUnderflow(t *testing.T) {
	e := &Estimate{LambdaMean: 2443, LambdaStd: 81, TotalInsts: 1.16e6}
	if c := e.ErrorCountCDF(e.LambdaMean); math.Abs(c-0.5) > 0.01 {
		t.Errorf("CDF at the mean = %v, want about 0.5", c)
	}
	v := e.LambdaStd * e.LambdaStd
	sd := math.Sqrt(v + e.LambdaMean)
	skew := (e.LambdaMean + 3*v) / (sd * sd * sd)
	for _, c := range []struct{ p, z float64 }{{0.50, 0}, {0.95, 1.6449}, {0.99, 2.3263}} {
		want := (e.LambdaMean + (c.z+(c.z*c.z-1)*skew/6)*sd) / e.TotalInsts
		if got := e.ErrorRateQuantile(c.p); math.Abs(got-want)*e.TotalInsts > 1.5 {
			t.Errorf("p%v quantile %v, want about %v", 100*c.p, got, want)
		}
	}
}

// The mixture CDF must behave like a CDF regardless of the lambda
// distribution: within [0, 1], nondecreasing in k, and degenerate to the pure
// Poisson law when the lambda spread vanishes.
func TestMixtureCDFIsACDF(t *testing.T) {
	rng := numeric.NewRNG(0xcdf)
	for i := 0; i < 40; i++ {
		mean := 0.5 + 100*rng.Float64()
		std := mean / 2 * rng.Float64()
		e := &Estimate{LambdaMean: mean, LambdaStd: std}
		prev := 0.0
		for k := 0.0; k <= 4*mean+5; k++ {
			c := e.ErrorCountCDF(k)
			if c < 0 || c > 1 {
				t.Fatalf("case %d: CDF(%v) = %v out of [0,1]", i, k, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("case %d: CDF not monotone at k=%v: %v < %v", i, k, c, prev)
			}
			prev = c
		}
		if c := e.ErrorCountCDF(4*mean + 10*math.Sqrt(mean) + 50); c < 0.999 {
			t.Errorf("case %d: CDF far right tail only %v", i, c)
		}

		degenerate := &Estimate{LambdaMean: mean, LambdaStd: 0}
		k := math.Floor(mean)
		want := dist.Poisson{Lambda: mean}.CDF(k)
		if d := math.Abs(degenerate.ErrorCountCDF(k) - want); d > 1e-12 {
			t.Errorf("case %d: zero-spread mixture differs from Poisson by %v", i, d)
		}
	}
}
