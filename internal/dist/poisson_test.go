package dist

import (
	"math"
	"testing"

	"tsperr/internal/numeric"
)

// logDomainCDF is the reference Poisson CDF for these tests, independent of
// the saddle-point PMF: every term is exp(j ln(lam) - lam - lgamma(j+1)),
// accumulated as a running log-sum-exp so that no term underflows before the
// sum does. It returns P(X <= k) for every k in [0, kmax]. Its own relative
// error is about 1.1e-16 times the exponent's magnitude (k ln(lam)), below
// 1e-11 for lam <= 5000 and about 1e-9 at lam = 1e6.
func logDomainCDF(lam float64, kmax int) []float64 {
	out := make([]float64, kmax+1)
	logSum := math.Inf(-1)
	for j := 0; j <= kmax; j++ {
		lg, _ := math.Lgamma(float64(j) + 1)
		lt := float64(j)*math.Log(lam) - lam - lg
		hi, lo := math.Max(logSum, lt), math.Min(logSum, lt)
		logSum = hi + math.Log1p(math.Exp(lo-hi))
		out[j] = math.Exp(logSum)
	}
	return out
}

// lambdaGrid returns n rates log-spaced over [lo, hi].
func lambdaGrid(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

// kWindow returns the integer range lam ± 10 sigma, clipped at zero.
func kWindow(lam float64) (lo, hi int) {
	s := 10 * math.Sqrt(lam)
	return int(math.Max(0, math.Floor(lam-s))), int(math.Ceil(lam+s)) + 10
}

// In the exact regime the CDF must match the log-domain reference to near
// machine precision over lam in [1e-3, 5000] and k within ±10 sigma,
// including the band above lam = 745 where exp(-lam) underflows (the CDF
// used to read 0 there).
func TestPoissonCDFMatchesLogDomainReference(t *testing.T) {
	lams := append(lambdaGrid(1e-3, PoissonNormalSwitch, 40), 744, 745.2, 800, 2443.7, PoissonNormalSwitch)
	for _, lam := range lams {
		klo, khi := kWindow(lam)
		ref := logDomainCDF(lam, khi)
		for k := klo; k <= khi; k++ {
			got := Poisson{Lambda: lam}.CDF(float64(k))
			if d := math.Abs(got - ref[k]); d > 1e-10*ref[k] {
				t.Fatalf("lam=%v k=%d: CDF %v, reference %v (rel err %v)", lam, k, got, ref[k], d/ref[k])
			}
		}
	}
}

// Spot values from the band where exp(-lam) underflows: for integer lam the
// CDF at lam is 1/2 + 2/(3 sqrt(2 pi lam)) up to O(1/lam) (the Edgeworth
// expansion at the mean).
func TestPoissonCDFAtMeanAboveUnderflow(t *testing.T) {
	for _, lam := range []float64{744, 746, 1000, 4999} {
		got := Poisson{Lambda: lam}.CDF(lam)
		want := 0.5 + 2/(3*math.Sqrt(2*math.Pi*lam))
		if d := math.Abs(got - want); d > 1e-3 {
			t.Errorf("lam=%v: CDF(lam) = %v, want about %v", lam, got, want)
		}
	}
}

// TestPoissonNormalSwitchErrorBound measures the normal approximation used
// above PoissonNormalSwitch against the log-domain reference and pins the
// bound its documentation states: max over k of |error| < 0.067/sqrt(lam),
// 9.5e-4 just above the switch (9.40e-4 measured). The same
// bound is the largest step the CDF takes across the switch.
func TestPoissonNormalSwitchErrorBound(t *testing.T) {
	for _, lam := range []float64{math.Nextafter(PoissonNormalSwitch, math.Inf(1)), 1e4, 1e5, 1e6} {
		klo, khi := kWindow(lam)
		ref := logDomainCDF(lam, khi)
		bound := 0.067 / math.Sqrt(lam)
		worst := 0.0
		for k := klo; k <= khi; k++ {
			d := math.Abs(Poisson{Lambda: lam}.CDF(float64(k)) - ref[k])
			worst = math.Max(worst, d)
		}
		if worst > bound {
			t.Errorf("lam=%v: normal approximation off by %v, documented bound %v", lam, worst, bound)
		}
		t.Logf("lam=%v: max |normal - exact| = %.3g (bound %.3g)", lam, worst, bound)
	}
}

// Across the switch the CDF may step by no more than the approximation
// error, at every k within ±10 sigma.
func TestPoissonCDFContinuousAcrossSwitch(t *testing.T) {
	below := Poisson{Lambda: PoissonNormalSwitch}
	above := Poisson{Lambda: math.Nextafter(PoissonNormalSwitch, math.Inf(1))}
	klo, khi := kWindow(PoissonNormalSwitch)
	for k := klo; k <= khi; k++ {
		if d := math.Abs(below.CDF(float64(k)) - above.CDF(float64(k))); d > 9.5e-4 {
			t.Fatalf("k=%d: CDF steps by %v across the normal switch", k, d)
		}
	}
}

// The CDF is nondecreasing in k in both regimes, and reaches 1 in the right
// tail.
func TestPoissonCDFMonotoneInK(t *testing.T) {
	for _, lam := range append(lambdaGrid(1e-3, 1e6, 25), 745.5) {
		klo, khi := kWindow(lam)
		prev := 0.0
		for k := klo; k <= khi; k++ {
			c := Poisson{Lambda: lam}.CDF(float64(k))
			if c < prev || c > 1 {
				t.Fatalf("lam=%v: CDF(%d) = %v after %v", lam, k, c, prev)
			}
			prev = c
		}
		if prev < 1-1e-12 {
			t.Errorf("lam=%v: CDF(lam + 10 sigma) = %v, want ~1", lam, prev)
		}
	}
}

// PMFWindow covers all but a negligible share of the mass, and its entries
// are the PMF.
func TestPMFWindowMatchesPMF(t *testing.T) {
	var buf []float64
	for _, lam := range append(lambdaGrid(1e-3, 1e6, 30), 0) {
		var k0 int
		k0, buf = Poisson{Lambda: lam}.PMFWindow(buf)
		var sum numeric.KahanSum
		for i, p := range buf {
			sum.Add(p)
			want := Poisson{Lambda: lam}.PMF(k0 + i)
			if d := math.Abs(p - want); d > 1e-12*want {
				t.Fatalf("lam=%v: window PMF(%d) = %v, PMF %v", lam, k0+i, p, want)
			}
		}
		if d := math.Abs(sum.Value() - 1); d > 1e-12 {
			t.Errorf("lam=%v: window [%d, %d] holds mass %v", lam, k0, k0+len(buf)-1, sum.Value())
		}
		if lam > 0 && float64(len(buf)) > 20*math.Sqrt(lam)+30 {
			t.Errorf("lam=%v: window of %d terms, want O(sqrt(lam))", lam, len(buf))
		}
	}
}
