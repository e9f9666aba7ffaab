package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		got := NormalCDF(c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.0005; p < 1; p += 0.0007 {
		x := NormalQuantile(p)
		back := NormalCDF(x)
		if math.Abs(back-p) > 1e-10 {
			t.Fatalf("roundtrip failed at p=%v: quantile=%v cdf=%v", p, x, back)
		}
	}
}

func TestNormalQuantileTails(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile endpoints should be infinite")
	}
	if x := NormalQuantile(1e-12); x > -6 {
		t.Errorf("deep lower tail quantile too large: %v", x)
	}
}

func TestNormalQuantileSymmetryProperty(t *testing.T) {
	f := func(raw float64) bool {
		p := 0.5 + 0.499*math.Tanh(raw) // map to (0.001, 0.999)
		return math.Abs(NormalQuantile(p)+NormalQuantile(1-p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianCDFPDFConsistency(t *testing.T) {
	g := Gaussian{Mean: 2, Std: 3}
	// Numerical derivative of CDF should match PDF.
	for _, x := range []float64{-4, 0, 2, 5, 9} {
		h := 1e-5
		d := (g.CDF(x+h) - g.CDF(x-h)) / (2 * h)
		if math.Abs(d-g.PDF(x)) > 1e-6 {
			t.Errorf("dCDF(%v)=%v, PDF=%v", x, d, g.PDF(x))
		}
	}
}

func TestGaussianDegenerate(t *testing.T) {
	g := Gaussian{Mean: 1, Std: 0}
	if g.CDF(0.999) != 0 || g.CDF(1) != 1 {
		t.Error("degenerate Gaussian should be a step at the mean")
	}
	if g.PDF(1) != 0 {
		t.Error("degenerate PDF defined as 0")
	}
}

func TestClarkMaxAgainstMonteCarlo(t *testing.T) {
	rng := NewRNG(7)
	cases := []struct {
		a, b Gaussian
		rho  float64
	}{
		{Gaussian{0, 1}, Gaussian{0, 1}, 0},
		{Gaussian{1, 0.5}, Gaussian{0, 2}, 0.3},
		{Gaussian{-1, 1}, Gaussian{1, 1}, -0.5},
		{Gaussian{3, 0.1}, Gaussian{0, 0.1}, 0.9},
	}
	const n = 200000
	for _, c := range cases {
		res := ClarkMax(c.a, c.b, c.rho)
		var sum, sum2, tight float64
		for i := 0; i < n; i++ {
			z1 := rng.Norm()
			z2 := c.rho*z1 + math.Sqrt(1-c.rho*c.rho)*rng.Norm()
			x := c.a.Mean + c.a.Std*z1
			y := c.b.Mean + c.b.Std*z2
			m := math.Max(x, y)
			sum += m
			sum2 += m * m
			if x > y {
				tight++
			}
		}
		mcMean := sum / n
		mcStd := math.Sqrt(sum2/n - mcMean*mcMean)
		if math.Abs(res.Mean-mcMean) > 0.02 {
			t.Errorf("ClarkMax mean %v vs MC %v (case %+v)", res.Mean, mcMean, c)
		}
		if math.Abs(res.Std-mcStd) > 0.03 {
			t.Errorf("ClarkMax std %v vs MC %v (case %+v)", res.Std, mcStd, c)
		}
		if math.Abs(res.Tightness-tight/n) > 0.01 {
			t.Errorf("ClarkMax tightness %v vs MC %v", res.Tightness, tight/n)
		}
	}
}

func TestClarkMinDuality(t *testing.T) {
	a := Gaussian{1, 0.7}
	b := Gaussian{1.5, 0.4}
	mn := ClarkMin(a, b, 0.2)
	mx := ClarkMax(a, b, 0.2)
	// E[min] + E[max] = E[A] + E[B].
	if math.Abs((mn.Mean+mx.Mean)-(a.Mean+b.Mean)) > 1e-12 {
		t.Errorf("min+max mean identity violated: %v + %v != %v",
			mn.Mean, mx.Mean, a.Mean+b.Mean)
	}
	if mn.Mean > math.Min(a.Mean, b.Mean) {
		t.Errorf("E[min]=%v should not exceed min of means %v", mn.Mean, math.Min(a.Mean, b.Mean))
	}
}

func TestClarkDegenerateEqual(t *testing.T) {
	a := Gaussian{2, 1}
	res := ClarkMax(a, a, 1)
	if res.Mean != a.Mean || res.Std != a.Std {
		t.Errorf("max of identical fully-correlated vars should be unchanged, got %+v", res)
	}
}

func TestCholesky(t *testing.T) {
	a := [][]float64{
		{4, 2, 0.6},
		{2, 5, 1.2},
		{0.6, 1.2, 3},
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	n := len(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += l[i][k] * l[j][k]
			}
			if math.Abs(s-a[i][j]) > 1e-10 {
				t.Errorf("LL^T[%d][%d] = %v, want %v", i, j, s, a[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 1}}
	if _, err := Cholesky(a); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

func TestSimpson(t *testing.T) {
	got := Simpson(func(x float64) float64 { return x * x }, 0, 3, 100)
	if math.Abs(got-9) > 1e-9 {
		t.Errorf("integral of x^2 over [0,3] = %v, want 9", got)
	}
	got = Simpson(math.Sin, 0, math.Pi, 200)
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("integral of sin over [0,pi] = %v, want 2", got)
	}
	if Simpson(math.Sin, 1, 1, 10) != 0 {
		t.Error("zero-width integral should be 0")
	}
}

func TestSimpsonNormalizesGaussian(t *testing.T) {
	g := Gaussian{Mean: -1, Std: 2.5}
	got := Simpson(g.PDF, g.Mean-10*g.Std, g.Mean+10*g.Std, 2000)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("Gaussian pdf integrates to %v", got)
	}
}

func TestKahanSum(t *testing.T) {
	var k KahanSum
	k.Add(1e16)
	for i := 0; i < 10; i++ {
		k.Add(1)
	}
	k.Add(-1e16)
	if k.Value() != 10 {
		t.Errorf("compensated sum = %v, want 10", k.Value())
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance = %v", v)
	}
	if StdDev(xs) != 2 {
		t.Errorf("stddev = %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/singleton edge cases")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(-1, 0, 1) != 0 || Clamp(2, 0, 1) != 1 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp misbehaves")
	}
}

// Regression: out-of-domain probabilities used to panic; the Err form must
// return ErrQuantileDomain instead, while the endpoints stay infinite.
func TestNormalQuantileErrDomain(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NormalQuantileErr(p); err == nil {
			t.Errorf("NormalQuantileErr(%v) should fail", p)
		}
	}
	if x, err := NormalQuantileErr(0); err != nil || !math.IsInf(x, -1) {
		t.Errorf("NormalQuantileErr(0) = %v, %v", x, err)
	}
	if x, err := NormalQuantileErr(1); err != nil || !math.IsInf(x, 1) {
		t.Errorf("NormalQuantileErr(1) = %v, %v", x, err)
	}
	if x, err := NormalQuantileErr(0.975); err != nil || math.Abs(x-1.959964) > 1e-4 {
		t.Errorf("NormalQuantileErr(0.975) = %v, %v", x, err)
	}
}

func TestGaussianQuantileErr(t *testing.T) {
	g := Gaussian{Mean: 10, Std: 2}
	q, err := g.QuantileErr(0.5)
	if err != nil || math.Abs(q-10) > 1e-9 {
		t.Errorf("median = %v, %v", q, err)
	}
	if _, err := g.QuantileErr(2); err == nil {
		t.Error("out-of-domain quantile should fail")
	}
}
