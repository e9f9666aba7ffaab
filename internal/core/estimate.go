// Package core implements the paper's primary contribution (Section 5):
// statistical estimation of a program's error count/rate distribution. The
// number of timing errors N_E — a weighted sum of dependent Bernoulli
// indicators — is approximated by a Poisson distribution whose parameter
// lambda is itself approximated by a Gaussian (central limit theorem), with
// Chen-Stein and Stein bounds quantifying both approximation errors,
// including the effect of the inter-instruction correlations introduced by
// the error-correction mechanism and by process variation.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"tsperr/internal/cfg"
	"tsperr/internal/dist"
	"tsperr/internal/errormodel"
	"tsperr/internal/numeric"
)

// Scenario couples one input dataset's solved error model with its profile.
type Scenario struct {
	Profile   *cfg.Profile
	Marginals *errormodel.Marginals
	Cond      *errormodel.Conditionals
	// Features, when available, carries the per-dynamic-instance probability
	// moments used by the instance-level Stein bound; without it the bound
	// falls back to static-instruction granularity.
	Features *errormodel.ScenarioFeatures
}

// Estimate is the program error count/rate distribution with its
// approximation-error bounds.
type Estimate struct {
	// LambdaMean and LambdaStd describe the Gaussian approximation of the
	// Poisson parameter (Equation 10 + CLT).
	LambdaMean float64
	LambdaStd  float64
	// LambdaSamples are the per-scenario exact lambda values.
	LambdaSamples []float64
	// TotalInsts is the total dynamic instruction count (the error-rate
	// denominator), averaged over scenarios.
	TotalInsts float64
	// DKLambda bounds d_K(lambda, lambda-bar) via Stein's method (Eq 13).
	DKLambda float64
	// DKCount bounds d_K(N_E, N-bar_E) via the Chen-Stein method (Eq 9),
	// using worst-case (mean + 6 sigma) b1 and b2 as the paper prescribes.
	DKCount float64
	// B1, B2 are the expected Chen-Stein terms (Eqs 7, 8) for diagnostics.
	B1, B2 float64

	// Equation (14) quadrature memo, built once per estimate: the Simpson
	// nodes and Gaussian weights depend only on the lambda distribution, not
	// on the query point k, and Figure 3, the quantile bisections and the
	// Monte Carlo check evaluate the CDF hundreds of times. The nodes are
	// ascending; mixNodes[:mixSplit] lie at or below
	// dist.PoissonNormalSwitch and are tabulated: exactCDF[i] is their
	// weighted Poisson CDF at count exactLo+i (the last entry holds beyond
	// the table). The nodes above the switch are evaluated per query.
	mixOnce  sync.Once
	mixNodes []float64
	mixW     []float64
	mixSplit int
	mixTrunc float64
	exactLo  float64
	exactCDF []float64
}

// NewEstimate runs the Section 5 estimation over the scenarios. ctx cancels
// between scenarios — with hundreds of scenario samples over large CFGs the
// moment sums are long-running by the pipeline's standards.
func NewEstimate(ctx context.Context, g *cfg.Graph, scenarios []Scenario) (*Estimate, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("core: no scenarios")
	}
	ns := len(scenarios)
	e := &Estimate{LambdaSamples: make([]float64, ns)}

	b1s := make([]float64, ns)
	b2s := make([]float64, ns)
	var totalInsts numeric.KahanSum

	// Per-instruction scenario samples of the weighted probability
	// e_i * p_ik, used for the Stein moment sums.
	nInst := len(g.Prog.Insts)
	weighted := make([][]float64, nInst)
	for i := range weighted {
		weighted[i] = make([]float64, ns)
	}

	for r, sc := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: estimation aborted at scenario %d: %w", r, err)
		}
		var lam, b1, b2 numeric.KahanSum
		for bi := range g.Blocks {
			blk := &g.Blocks[bi]
			ei := float64(sc.Profile.ExecCount[bi])
			if ei == 0 {
				continue
			}
			prev := sc.Marginals.In[bi]
			for k := blk.Start; k < blk.End; k++ {
				p := sc.Marginals.P[k]
				lam.Add(ei * p)
				weighted[k][r] = ei * p
				// Eq (7): b1 accumulates p_{k-1} p_k per execution;
				// Eq (8): b2 accumulates p_{k-1} p^e_k per execution.
				b1.Add(ei * (prev*p + p*p)) // neighborhood includes alpha itself
				b2.Add(ei * prev * sc.Cond.PE[k])
				prev = p
			}
		}
		e.LambdaSamples[r] = lam.Value()
		b1s[r] = b1.Value()
		b2s[r] = b2.Value()
		totalInsts.Add(float64(sc.Profile.InstCount))
	}
	e.TotalInsts = totalInsts.Value() / float64(ns)
	e.LambdaMean = numeric.Mean(e.LambdaSamples)
	e.LambdaStd = numeric.StdDev(e.LambdaSamples)

	// Chen-Stein bound (Theorem 5.1 / Eq 9) with worst-case b1, b2.
	e.B1 = numeric.Mean(b1s)
	e.B2 = numeric.Mean(b2s)
	wcB1 := e.B1 + 6*numeric.StdDev(b1s)
	wcB2 := e.B2 + 6*numeric.StdDev(b2s)
	lam := e.LambdaMean
	if lam < 1 {
		lam = 1 // the paper assumes lambda > 1
	}
	e.DKCount = numeric.Clamp((wcB1+wcB2)/lam, 0, 1)

	// Stein normal bound (Theorem 5.2 / Eqs 11-13) with dependency
	// neighborhoods of size D = 2 (an instruction and its predecessor).
	// Following Equation (10)'s triple sum, the X_alpha are the
	// per-dynamic-instance error probabilities: every execution of a static
	// instruction contributes its own random variable, whose moments come
	// from the recorded distribution of dynamic-instance probabilities
	// (plus the across-scenario spread of the marginals). When instance
	// features are unavailable the bound degrades to static-instruction
	// granularity using the scenario samples of e_i * p_ik.
	e.DKLambda = steinBound(g, scenarios, weighted)
	// Fail closed: a non-finite moment or bound (a NaN probability upstream)
	// must not become a report with a verdict.
	for _, q := range [...]struct {
		name string
		v    float64
	}{
		{"lambda mean", e.LambdaMean}, {"lambda std", e.LambdaStd},
		{"b1", e.B1}, {"b2", e.B2},
		{"count bound", e.DKCount}, {"lambda bound", e.DKLambda},
	} {
		if math.IsNaN(q.v) || math.IsInf(q.v, 0) {
			return nil, fmt.Errorf("core: non-finite %s %v", q.name, q.v)
		}
	}
	return e, nil
}

// steinBound evaluates the Theorem 5.2 bound.
func steinBound(g *cfg.Graph, scenarios []Scenario, weighted [][]float64) float64 {
	const d = 2.0
	nInst := len(g.Prog.Insts)
	haveFeatures := true
	for _, sc := range scenarios {
		if sc.Features == nil {
			haveFeatures = false
			break
		}
	}
	var sigma2, sum3, sum4 numeric.KahanSum
	if haveFeatures {
		for i := 0; i < nInst; i++ {
			bi := g.BlockOf[i]
			// Pool per-instance raw moments across scenarios, each scenario
			// weighted by its (scaled) execution count. The instance value is
			// p = c_s + dp_j with c_s = marginal - mean(dp), so raw power
			// sums of p follow from the recorded power sums of dp by
			// binomial expansion.
			var wTot float64
			var r1, r2, r3, r4 numeric.KahanSum
			for _, sc := range scenarios {
				n, t1, t2, t3, t4 := sc.Features.InstanceMoments(i)
				ei := float64(sc.Profile.ExecCount[bi])
				if n == 0 || ei == 0 {
					continue
				}
				fn := float64(n)
				c := sc.Marginals.P[i] - t1/fn
				w := ei / fn // each recorded instance represents this many
				wTot += ei
				r1.Add(w * (t1 + fn*c))
				r2.Add(w * (t2 + 2*c*t1 + fn*c*c))
				r3.Add(w * (t3 + 3*c*t2 + 3*c*c*t1 + fn*c*c*c))
				r4.Add(w * (t4 + 4*c*t3 + 6*c*c*t2 + 4*c*c*c*t1 + fn*c*c*c*c))
			}
			if wTot == 0 {
				continue
			}
			mu1 := r1.Value() / wTot
			mu2 := r2.Value() / wTot
			mu3 := r3.Value() / wTot
			mu4 := r4.Value() / wTot
			m2 := math.Max(0, mu2-mu1*mu1)
			m3c := mu3 - 3*mu1*mu2 + 2*mu1*mu1*mu1
			m4 := math.Max(0, mu4-4*mu1*mu3+6*mu1*mu1*mu2-3*mu1*mu1*mu1*mu1)
			// E|X - mu|^3 <= sqrt(m2 * m4) by Cauchy-Schwarz; keeps the
			// result a true upper bound without storing signed cubes.
			abs3 := math.Sqrt(m2 * m4)
			if s := m3c; s > abs3 {
				abs3 = s
			}
			sigma2.Add(wTot * m2)
			sum3.Add(wTot * abs3)
			sum4.Add(wTot * m4)
		}
	} else {
		for i := 0; i < nInst; i++ {
			rv := dist.NewDiscreteUniform(weighted[i])
			sigma2.Add(rv.Var())
			sum3.Add(rv.AbsCentralMoment(3))
			sum4.Add(rv.CentralMoment(4))
		}
	}
	sigma := math.Sqrt(sigma2.Value())
	if sigma <= 0 {
		return 0
	}
	b1 := d * d / math.Pow(sigma, 3) * sum3.Value()
	b2 := math.Sqrt(28) * math.Pow(d, 1.5) / (math.Sqrt(math.Pi) * sigma * sigma) *
		math.Sqrt(sum4.Value())
	return numeric.Clamp(math.Pow(2/math.Pi, 0.25)*(b1+b2), 0, 1)
}

// mixtureIntervals is the Simpson interval count of the Equation (14)
// quadrature, matching the pre-memoized implementation.
const mixtureIntervals = 600

// mixtureNodes returns the Equation (14) quadrature: node positions with
// composite-Simpson coefficients folded with the Gaussian density of
// lambda, and the Gaussian mass truncated below zero. A point-mass lambda
// (zero spread) is the single node max(0, mean) of weight 1.
func (e *Estimate) mixtureNodes() (nodes, weights []float64, trunc float64) {
	if e.LambdaStd <= 0 {
		return []float64{math.Max(0, e.LambdaMean)}, []float64{1}, 0
	}
	g := numeric.Gaussian{Mean: e.LambdaMean, Std: e.LambdaStd}
	lo := math.Max(0, e.LambdaMean-8*e.LambdaStd)
	hi := e.LambdaMean + 8*e.LambdaStd
	h := (hi - lo) / mixtureIntervals
	nodes = make([]float64, mixtureIntervals+1)
	weights = make([]float64, mixtureIntervals+1)
	for i := 0; i <= mixtureIntervals; i++ {
		x := lo + float64(i)*h
		c := 1.0
		if i > 0 && i < mixtureIntervals {
			if i%2 == 1 {
				c = 4
			} else {
				c = 2
			}
		}
		nodes[i] = x
		weights[i] = c * g.PDF(x) * h / 3
	}
	// Mass truncated below zero behaves as lambda == 0 (CDF = 1 for k >= 0).
	if lo == 0 {
		trunc = g.CDF(0)
	}
	return nodes, weights, trunc
}

// initMixture builds the per-estimate memo of the Equation (14) CDF. Each
// node up to the normal switch adds its weighted Poisson PMF over the
// window holding its mass (dist.Poisson.PMFWindow, O(sqrt(lambda)) terms);
// one running sum then turns the table into the CDF, so a query costs a
// lookup instead of a sum over hundreds of nodes.
func (e *Estimate) initMixture() {
	e.mixNodes, e.mixW, e.mixTrunc = e.mixtureNodes()
	for e.mixSplit < len(e.mixNodes) && e.mixNodes[e.mixSplit] <= dist.PoissonNormalSwitch {
		e.mixSplit++
	}
	if e.mixSplit == 0 {
		return
	}
	// The windows move up with lambda, so the last node's window sizes the
	// buffer and the two outermost windows size the table: each is allocated
	// once instead of growing node by node.
	hi, win := dist.Poisson{Lambda: e.mixNodes[e.mixSplit-1]}.PMFWindow(nil)
	hi += len(win)
	lo, _ := dist.Poisson{Lambda: e.mixNodes[0]}.PMFWindow(win)
	pmf := make([]float64, max(hi-lo, 0))
	for i, x := range e.mixNodes[:e.mixSplit] {
		var k0 int
		k0, win = dist.Poisson{Lambda: x}.PMFWindow(win)
		if k0 < lo {
			pmf = append(make([]float64, lo-k0, lo-k0+len(pmf)), pmf...)
			lo = k0
		}
		if n := k0 - lo + len(win); n > len(pmf) {
			pmf = append(pmf, make([]float64, n-len(pmf))...)
		}
		for j, p := range win {
			pmf[k0-lo+j] += e.mixW[i] * p
		}
	}
	var run numeric.KahanSum
	for j, p := range pmf {
		run.Add(p)
		pmf[j] = run.Value()
	}
	e.exactLo, e.exactCDF = float64(lo), pmf
}

// poissonMixtureCDF evaluates Equation (14): the probability of at most k
// errors, integrating the Poisson CDF against the Gaussian density of
// lambda, clamped to lambda > 0. The nodes up to the normal switch come
// from the tabulated memo, except below the table, where their far lower
// tails (below 2^-60 of the mass, which the table drops) are summed
// directly so that tiny probabilities keep their relative precision. The
// nodes above the switch are evaluated per query.
func (e *Estimate) poissonMixtureCDF(k float64) float64 {
	if k < 0 {
		return 0
	}
	e.mixOnce.Do(e.initMixture)
	var integral float64
	if n := len(e.exactCDF); n > 0 {
		switch i := math.Floor(k) - e.exactLo; {
		case i < 0:
			for j, x := range e.mixNodes[:e.mixSplit] {
				integral += e.mixW[j] * dist.Poisson{Lambda: x}.CDF(k)
			}
		case i < float64(n):
			integral = e.exactCDF[int(i)]
		default:
			integral = e.exactCDF[n-1]
		}
	}
	for j := e.mixSplit; j < len(e.mixNodes); j++ {
		integral += e.mixW[j] * dist.Poisson{Lambda: e.mixNodes[j]}.CDF(k)
	}
	integral += e.mixTrunc
	return numeric.Clamp(integral, 0, 1)
}

// ErrorCountCDF returns P(N_E <= k) under the estimated model (Eq 14).
func (e *Estimate) ErrorCountCDF(k float64) float64 { return e.poissonMixtureCDF(k) }

// ErrorCountCDFBounds returns the lower and upper bound CDFs of Section 6.4:
// the estimate shifted by the combined Stein and Chen-Stein bounds.
func (e *Estimate) ErrorCountCDFBounds(k float64) (lo, hi float64) {
	c := e.poissonMixtureCDF(k)
	b := e.DKLambda + e.DKCount
	return numeric.Clamp(c-b, 0, 1), numeric.Clamp(c+b, 0, 1)
}

// ErrorRateCDF returns P(R_E <= rate) where R_E = N_E / TotalInsts; rate is
// a fraction (0.004 = 0.4%).
func (e *Estimate) ErrorRateCDF(rate float64) float64 {
	return e.ErrorCountCDF(rate * e.TotalInsts)
}

// ErrorRateCDFBounds returns the Section 6.4 bound curves at an error rate.
func (e *Estimate) ErrorRateCDFBounds(rate float64) (lo, hi float64) {
	return e.ErrorCountCDFBounds(rate * e.TotalInsts)
}

// MeanErrorRate returns E[R_E].
func (e *Estimate) MeanErrorRate() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	return e.LambdaMean / e.TotalInsts
}

// StdErrorRate returns the standard deviation of R_E, combining the spread
// of lambda with the Poisson variance (E[Var(N|lambda)] = E[lambda]).
func (e *Estimate) StdErrorRate() float64 {
	if e.TotalInsts == 0 {
		return 0
	}
	v := e.LambdaStd*e.LambdaStd + e.LambdaMean
	return math.Sqrt(v) / e.TotalInsts
}

// ErrorRateQuantile returns the error rate r such that P(R_E <= r) = p,
// found by bisection on the Equation (14) CDF. It answers questions like
// "what error rate will 95 % of (chip, input) pairs stay under?".
func (e *Estimate) ErrorRateQuantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if e.TotalInsts == 0 {
		return 0
	}
	hi := (e.LambdaMean + 10*e.LambdaStd + 10*math.Sqrt(math.Max(1, e.LambdaMean))) / e.TotalInsts
	if p >= 1 {
		return hi
	}
	// The CDF depends on the rate only through the whole error count, and
	// the late bisection steps stay within one count: reuse the last value.
	lastK, lastC := math.Inf(-1), 0.0
	lo := 0.0
	for i := 0; i < 60 && hi-lo > 1e-12; i++ {
		mid := (lo + hi) / 2
		if k := math.Floor(mid * e.TotalInsts); math.Float64bits(k) != math.Float64bits(lastK) {
			lastK, lastC = k, e.ErrorCountCDF(k)
		}
		if lastC < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
