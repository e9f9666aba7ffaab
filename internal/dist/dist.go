// Package dist provides the probability distributions used by the error-rate
// estimation framework: Normal and Poisson laws, the exact Poisson binomial
// distribution (used as a ground-truth baseline on small problems), discrete
// random variables with moment computation (the representation the paper uses
// for instruction error probabilities under data variation), and the
// Kolmogorov and total-variation metrics of Section 5.
package dist

import (
	"math"
	"sort"

	"tsperr/internal/numeric"
)

// Distribution is a one-dimensional probability distribution described by its
// cumulative distribution function.
type Distribution interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns the expectation.
	Mean() float64
	// Var returns the variance.
	Var() float64
}

// Normal is a Gaussian distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 { return numeric.NormalCDFMeanStd(x, n.Mu, n.Sigma) }

// Mean returns mu.
func (n Normal) Mean() float64 { return n.Mu }

// Var returns sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// PDF returns the density at x.
func (n Normal) PDF(x float64) float64 {
	return numeric.Gaussian{Mean: n.Mu, Std: n.Sigma}.PDF(x)
}

// Quantile returns the p-th quantile.
func (n Normal) Quantile(p float64) float64 {
	return numeric.Gaussian{Mean: n.Mu, Std: n.Sigma}.Quantile(p)
}

// Poisson is a Poisson distribution with rate Lambda.
type Poisson struct {
	Lambda float64
}

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	if k < 0 || p.Lambda < 0 {
		return 0
	}
	if p.Lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return poissonPMF(float64(k), p.Lambda)
}

// PoissonNormalSwitch is the rate above which Poisson.CDF uses the normal
// approximation with continuity correction instead of exact summation. Its
// worst-case absolute error over k is about 0.0665/sqrt(Lambda) (the
// skewness term of the Edgeworth expansion): below 9.4e-4 just above the
// switch and below 7e-5 at Lambda = 1e6, pinned by
// TestPoissonNormalSwitchErrorBound. Exact summation costs O(sqrt(Lambda))
// terms per evaluation, which the Equation (14) quadrature cannot afford at
// the paper's program scales (Lambda in the millions).
const PoissonNormalSwitch = 5000

// CDF returns P(X <= floor(x)), the regularized upper incomplete gamma
// function Q(floor(x)+1, Lambda). Up to PoissonNormalSwitch it sums the
// probabilities from k towards the far tail of the shorter side (the lower
// tail below the mean, 1 minus the upper tail above it); every term comes
// from the saddle-point PMF, so nothing underflows before the true value
// does. Above the switch it is the normal approximation.
func (p Poisson) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	k := math.Floor(x)
	if p.Lambda <= 0 {
		return 1
	}
	if p.Lambda > PoissonNormalSwitch {
		return numeric.NormalCDF((k + 0.5 - p.Lambda) / math.Sqrt(p.Lambda))
	}
	lam := p.Lambda
	if k < lam {
		// Lower tail: P(X = j) shrinks by j/lam per step down from k.
		return tailSum(poissonPMF(k, lam), func(j float64) float64 { return j / lam }, k, -1)
	}
	// Upper tail: P(X = j+1) = P(X = j) * lam/(j+1), shrinking above k.
	return 1 - tailSum(poissonPMF(k+1, lam), func(j float64) float64 { return lam / (j + 1) }, k+1, 1)
}

// tailCutoff is the mass below which a Poisson tail is dropped: far below
// the rounding error of a probability near one.
const tailCutoff = 0x1p-60

// tailSum sums the geometric-like series term, term*ratio(j), ... stepping
// j by step from j0 until j would leave the support or the rest of the
// series, bounded by term*r/(1-r) since ratio decreases along the walk, is
// below tailCutoff relative to the sum.
func tailSum(term float64, ratio func(j float64) float64, j0, step float64) float64 {
	var sum numeric.KahanSum
	for j := j0; term > 0; j += step {
		sum.Add(term)
		r := ratio(j)
		if r <= 0 || (r < 1 && term*r/(1-r) < tailCutoff*sum.Value()) {
			break
		}
		term *= r
	}
	return math.Min(1, sum.Value())
}

// PMFWindow returns P(X = k0+i) as pmf[i] for the integers k0, k0+1, ...
// holding all but a tailCutoff share of the mass, appended to buf[:0]. The
// walk starts at the mode from the saddle-point PMF and recurses outwards,
// so its cost is O(sqrt(Lambda)) however large Lambda is. Lambda <= 0 is the
// point mass at 0.
func (p Poisson) PMFWindow(buf []float64) (k0 int, pmf []float64) {
	lam := p.Lambda
	if lam <= 0 {
		return 0, append(buf[:0], 1)
	}
	mode := math.Floor(lam)
	peak := poissonPMF(mode, lam)
	// Lower side, collected outwards from the mode and reversed after.
	down := buf[:0]
	j, t := mode, peak
	for j > 0 {
		r := j / lam
		if t*r/(1-r) < tailCutoff {
			break
		}
		t *= r
		j--
		down = append(down, t)
	}
	for a, b := 0, len(down)-1; a < b; a, b = a+1, b-1 {
		down[a], down[b] = down[b], down[a]
	}
	pmf = append(down, peak)
	for j, t = mode+1, peak*lam/(mode+1); ; j++ {
		pmf = append(pmf, t)
		r := lam / (j + 1)
		if t*r/(1-r) < tailCutoff {
			break
		}
		t *= r
	}
	return int(mode) - len(down), pmf
}

// poissonPMF is P(X = k) for rate lam > 0 in Loader's saddle-point form,
// exp(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k): the exponent is formed
// from small, accurately computed pieces, where k ln(lam) - lam -
// lgamma(k+1) would cancel large terms (and exp(-lam) alone underflows
// beyond lam = 745).
func poissonPMF(k, lam float64) float64 {
	if k == 0 {
		return math.Exp(-lam)
	}
	return math.Exp(-stirlerr(k)-bd0(k, lam)) / math.Sqrt(2*math.Pi*k)
}

// stirlerr returns ln(n!) - ((n+1/2) ln n - n + ln sqrt(2 pi)), the error of
// Stirling's formula, for integer n >= 1: directly from math.Lgamma for
// small n and from its asymptotic series beyond.
func stirlerr(n float64) float64 {
	const (
		s0 = 1.0 / 12
		s1 = 1.0 / 360
		s2 = 1.0 / 1260
		s3 = 1.0 / 1680
		s4 = 1.0 / 1188
	)
	if n <= 15 {
		lg, _ := math.Lgamma(n + 1)
		return lg - (n+0.5)*math.Log(n) + n - 0.5*math.Log(2*math.Pi)
	}
	nn := n * n
	switch {
	case n > 500:
		return (s0 - s1/nn) / n
	case n > 80:
		return (s0 - (s1-s2/nn)/nn) / n
	case n > 35:
		return (s0 - (s1-(s2-s3/nn)/nn)/nn) / n
	}
	return (s0 - (s1-(s2-(s3-s4/nn)/nn)/nn)/nn) / n
}

// bd0 returns x ln(x/m) + m - x, the deviance term of the saddle-point PMF,
// by a series in v = (x-m)/(x+m) where the closed form would cancel.
func bd0(x, m float64) float64 {
	if math.Abs(x-m) >= 0.1*(x+m) {
		return x*math.Log(x/m) + m - x
	}
	v := (x - m) / (x + m)
	s := (x - m) * v
	ej := 2 * x * v
	v *= v
	// |v| < 0.1, so the terms shrink at least a hundredfold per step.
	for j := 1; j < 40; j++ {
		ej *= v
		term := ej / float64(2*j+1)
		s += term
		if math.Abs(term) <= 0x1p-60*math.Abs(s) {
			break
		}
	}
	return s
}

// Mean returns Lambda.
func (p Poisson) Mean() float64 { return p.Lambda }

// Var returns Lambda.
func (p Poisson) Var() float64 { return p.Lambda }

// PoissonBinomial is the distribution of a sum of independent Bernoulli
// variables with success probabilities Ps. The paper notes computing it
// exactly is prohibitive at scale; we implement the exact O(n^2) dynamic
// program for use as a ground truth on small instances.
type PoissonBinomial struct {
	Ps []float64

	pmf []float64
}

// NewPoissonBinomial builds the distribution and materializes its PMF.
func NewPoissonBinomial(ps []float64) *PoissonBinomial {
	pb := &PoissonBinomial{Ps: ps}
	pmf := make([]float64, 1, len(ps)+1)
	pmf[0] = 1
	for _, p := range ps {
		next := make([]float64, len(pmf)+1)
		for k, q := range pmf {
			next[k] += q * (1 - p)
			next[k+1] += q * p
		}
		pmf = next
	}
	pb.pmf = pmf
	return pb
}

// PMF returns P(X = k).
func (pb *PoissonBinomial) PMF(k int) float64 {
	if k < 0 || k >= len(pb.pmf) {
		return 0
	}
	return pb.pmf[k]
}

// CDF returns P(X <= floor(x)).
func (pb *PoissonBinomial) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	k := int(math.Floor(x))
	if k >= len(pb.pmf) {
		return 1
	}
	var sum numeric.KahanSum
	for i := 0; i <= k; i++ {
		sum.Add(pb.pmf[i])
	}
	return math.Min(1, sum.Value())
}

// Mean returns the sum of probabilities.
func (pb *PoissonBinomial) Mean() float64 { return numeric.Sum(pb.Ps) }

// Var returns sum p(1-p).
func (pb *PoissonBinomial) Var() float64 {
	var k numeric.KahanSum
	for _, p := range pb.Ps {
		k.Add(p * (1 - p))
	}
	return k.Value()
}

// LeCamBound returns Le Cam's classical bound on the total variation distance
// between this Poisson binomial distribution and Poisson(Mean()):
// d_TV <= sum p_i^2. It is the independent-indicator specialization of the
// Chen-Stein bound the paper uses.
func (pb *PoissonBinomial) LeCamBound() float64 {
	var k numeric.KahanSum
	for _, p := range pb.Ps {
		k.Add(p * p)
	}
	return k.Value()
}

// Discrete is a finitely-supported random variable: value Xs[i] occurs with
// probability Ps[i]. This is the representation the paper uses for
// instruction error probabilities that vary with program input data.
type Discrete struct {
	Xs []float64
	Ps []float64
}

// NewDiscreteUniform builds a Discrete giving each sample equal weight, the
// natural result of recording one error probability per simulated scenario.
func NewDiscreteUniform(samples []float64) Discrete {
	n := len(samples)
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 1 / float64(n)
	}
	xs := make([]float64, n)
	copy(xs, samples)
	return Discrete{Xs: xs, Ps: ps}
}

// Mean returns E[X].
func (d Discrete) Mean() float64 {
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(x * d.Ps[i])
	}
	return k.Value()
}

// Moment returns the raw moment E[X^order].
func (d Discrete) Moment(order int) float64 {
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(x, float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// AbsMoment returns E[|X|^order].
func (d Discrete) AbsMoment(order int) float64 {
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(math.Abs(x), float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// CentralMoment returns E[(X-mean)^order].
func (d Discrete) CentralMoment(order int) float64 {
	m := d.Mean()
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(x-m, float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// AbsCentralMoment returns E[|X-mean|^order].
func (d Discrete) AbsCentralMoment(order int) float64 {
	m := d.Mean()
	var k numeric.KahanSum
	for i, x := range d.Xs {
		k.Add(math.Pow(math.Abs(x-m), float64(order)) * d.Ps[i])
	}
	return k.Value()
}

// Var returns the variance.
func (d Discrete) Var() float64 { return d.CentralMoment(2) }

// Std returns the standard deviation.
func (d Discrete) Std() float64 { return math.Sqrt(d.Var()) }

// CDF returns P(X <= x).
func (d Discrete) CDF(x float64) float64 {
	var k numeric.KahanSum
	for i, v := range d.Xs {
		if v <= x {
			k.Add(d.Ps[i])
		}
	}
	return math.Min(1, k.Value())
}

// Scale returns the distribution of c*X.
func (d Discrete) Scale(c float64) Discrete {
	xs := make([]float64, len(d.Xs))
	for i, x := range d.Xs {
		xs[i] = c * x
	}
	ps := make([]float64, len(d.Ps))
	copy(ps, d.Ps)
	return Discrete{Xs: xs, Ps: ps}
}

// Kolmogorov returns the Kolmogorov metric sup_x |F(x) - G(x)| between two
// distributions, evaluated on the supplied grid of points. The grid should
// cover the support of both distributions densely.
func Kolmogorov(f, g func(float64) float64, grid []float64) float64 {
	var worst float64
	for _, x := range grid {
		d := math.Abs(f(x) - g(x))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TotalVariationInt returns the total variation distance between two
// integer-supported PMFs evaluated on 0..n.
func TotalVariationInt(p, q func(int) float64, n int) float64 {
	var k numeric.KahanSum
	for i := 0; i <= n; i++ {
		k.Add(math.Abs(p(i) - q(i)))
	}
	return 0.5 * k.Value()
}

// LinearGrid returns n+1 evenly spaced points spanning [lo, hi].
func LinearGrid(lo, hi float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	g := make([]float64, n+1)
	for i := range g {
		g[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return g
}

// EmpiricalCDF returns a CDF function built from samples.
func EmpiricalCDF(samples []float64) func(float64) float64 {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	n := float64(len(s))
	return func(x float64) float64 {
		if len(s) == 0 {
			return 0
		}
		idx := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1)))
		return float64(idx) / n
	}
}
