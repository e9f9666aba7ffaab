package harness

import (
	"context"
	"flag"
	"math"
	"sort"
	"testing"

	"tsperr/internal/core"
	"tsperr/internal/dist"
	"tsperr/internal/mibench"
	"tsperr/internal/numeric"
)

// oracleFull selects the full sampling budget of the standing oracles below;
// `make check` sets it. Without it (plain `go test`, and -short) they run on
// a tenth of the budget: enough to catch a CDF that is off by a visible
// fraction, as the lambda > 745 underflow was.
var oracleFull = flag.Bool("oracle.full", false, "run the standing Monte Carlo oracles at their full budget")

func oracleBudget(short, full int) int {
	if *oracleFull {
		return full
	}
	return short
}

// TestSection5OracleAllBenchmarks is the paper's Section 5 check as a
// standing oracle over all 12 Table 2 benchmarks: direct Monte Carlo
// simulation of each program's Markov error process (the unscaled program,
// through core's sharded validation) must land within DKLambda + DKCount of
// the Equation (14) CDF, plus the DKW sampling allowance 2.5/sqrt(trials).
func TestSection5OracleAllBenchmarks(t *testing.T) {
	trials := oracleBudget(400, 4000)
	for _, b := range mibench.All() {
		rep, err := nominal.Analyze(context.Background(), b.Name, 4, core.AnalyzeOpts{MCTrials: trials, MCSeed: 1})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		mc := rep.MC
		if mc == nil || mc.Trials != trials {
			t.Fatalf("%s: no Monte Carlo validation of %d trials: %+v", b.Name, trials, mc)
		}
		if !mc.Within {
			t.Errorf("%s: Monte Carlo CDF distance %v exceeds the Section 5 bound %v (lambda %v, %d trials)",
				b.Name, mc.MaxCDFDistance, mc.Bound, mc.LambdaRef, trials)
		}
	}
}

// TestEquation14SamplingOracle checks the Equation (14) CDF of every
// benchmark's full-scale estimate (lambda from tens of thousands to
// millions, where the Section 5 simulation cannot reach) against samples of
// the model it integrates: lambda ~ N(mean, std^2) with the mass below zero
// at zero, then N ~ Poisson(lambda) from an exact sampler. The empirical CDF
// must stay within the DKW band of failure probability 1e-6, plus the
// normal-switch error of dist.Poisson.
func TestEquation14SamplingOracle(t *testing.T) {
	n := oracleBudget(2000, 20000)
	eps := math.Sqrt(math.Log(2/1e-6)/(2*float64(n))) + 1e-3
	for i, b := range mibench.All() {
		rep, err := nominal.Analyze(context.Background(), b.Name, 4, core.AnalyzeOpts{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		e := rep.Estimate
		rng := numeric.NewRNG(uint64(0xe914 + i))
		counts := make([]int, n)
		for j := range counts {
			lam := math.Max(0, e.LambdaMean+e.LambdaStd*rng.Norm())
			counts[j] = poissonSample(rng, lam)
		}
		sort.Ints(counts)
		// Both CDFs step only at integers: the supremum is attained at a
		// sample value or just below one.
		worst := 0.0
		for j, k := range counts {
			if j+1 < n && counts[j+1] == k {
				continue
			}
			above := math.Abs(float64(j+1)/float64(n) - e.ErrorCountCDF(float64(k)))
			below := math.Abs(float64(sort.SearchInts(counts, k))/float64(n) - e.ErrorCountCDF(float64(k-1)))
			worst = math.Max(worst, math.Max(above, below))
		}
		if worst > eps {
			t.Errorf("%s: Equation (14) CDF is %v from %d model samples (lambda %v ± %v), DKW band %v",
				b.Name, worst, n, e.LambdaMean, e.LambdaStd, eps)
		}
	}
}

// poissonSample draws an exact Poisson(lam) deviate: Knuth's product method
// below 10 and Hörmann's PTRS transformed rejection above, whose acceptance
// test is the log PMF itself, so no normal approximation enters the oracle.
func poissonSample(rng *numeric.RNG, lam float64) int {
	if lam < 10 {
		l := math.Exp(-lam)
		k, p := 0, rng.Float64()
		for p > l {
			k++
			p *= rng.Float64()
		}
		return k
	}
	slam, loglam := math.Sqrt(lam), math.Log(lam)
	b := 0.931 + 2.53*slam
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lam + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v)+math.Log(invAlpha)-math.Log(a/(us*us)+b) <= -lam+k*loglam-lg {
			return int(k)
		}
	}
}

// The sampler itself must follow the Poisson law it claims, checked in the
// exact regime of dist.Poisson (which the sampler does not use).
func TestPoissonSampleMatchesPoisson(t *testing.T) {
	const n = 20000
	eps := math.Sqrt(math.Log(2/1e-6) / (2 * n))
	rng := numeric.NewRNG(0x5a3)
	for _, lam := range []float64{0.7, 9.9, 10, 37.5, 800, 4000} {
		counts := make([]float64, n)
		for j := range counts {
			counts[j] = float64(poissonSample(rng, lam))
		}
		ecdf := dist.EmpiricalCDF(counts)
		p := dist.Poisson{Lambda: lam}
		lo, hi := math.Max(0, lam-10*math.Sqrt(lam)-5), lam+10*math.Sqrt(lam)+5
		for k := math.Floor(lo); k <= hi; k++ {
			if d := math.Abs(ecdf(k) - p.CDF(k)); d > eps {
				t.Fatalf("lam=%v: sampler ECDF(%v) = %v, Poisson CDF %v", lam, k, ecdf(k), p.CDF(k))
			}
		}
	}
}
