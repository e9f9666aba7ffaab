// Package variation models within-die process variation with spatial
// correlation using the standard quad-tree (grid hierarchy) model: the die is
// recursively divided into quadrants, each level contributes an independent
// Gaussian component, and gates share components for every level whose cell
// contains both of them. Gate and path delays are carried as canonical
// first-order forms (mean + sensitivities to the grid principal components +
// an independent residual), which is what lets the DTA of Section 3 replace
// STA with SSTA.
package variation

import (
	"fmt"
	"math"

	"tsperr/internal/numeric"
)

// Model describes the variation structure of a manufactured die.
type Model struct {
	// Levels is the number of quad-tree levels beyond the global one.
	// Level 0 is the whole die; level l has 4^l cells.
	Levels int
	// CorrShare is the fraction of delay variance that is spatially
	// correlated; the remainder is gate-local random variation.
	CorrShare float64

	offsets []int // starting PC index of each level
	total   int   // total number of principal components
}

// NewModel builds a variation model. levels must be >= 0 and corrShare in
// [0, 1].
func NewModel(levels int, corrShare float64) (*Model, error) {
	if levels < 0 {
		return nil, fmt.Errorf("variation: negative levels %d", levels)
	}
	if corrShare < 0 || corrShare > 1 {
		return nil, fmt.Errorf("variation: corrShare %v outside [0,1]", corrShare)
	}
	m := &Model{Levels: levels, CorrShare: corrShare}
	m.offsets = make([]int, levels+1)
	for l := 0; l <= levels; l++ {
		m.offsets[l] = m.total
		m.total += 1 << (2 * l)
	}
	return m, nil
}

// NumPCs returns the number of principal components (grid cells over all
// levels).
func (m *Model) NumPCs() int { return m.total }

// cellIndex returns the PC index for level l at normalized die coordinates
// (x, y) in [0, 1).
func (m *Model) cellIndex(l int, x, y float64) int {
	n := 1 << l // cells per side at this level
	cx := int(x * float64(n))
	cy := int(y * float64(n))
	if cx >= n {
		cx = n - 1
	}
	if cy >= n {
		cy = n - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return m.offsets[l] + cy*n + cx
}

// Canon is a canonical first-order Gaussian form: value = Mean + Sens . Z +
// Rand * xi, where Z is the vector of standard-normal principal components
// shared across the die and xi is an independent standard normal.
type Canon struct {
	Mean float64
	Sens []float64
	Rand float64
}

// Canonical returns the delay canonical form of a gate placed at normalized
// coordinates (x, y) with the given nominal delay and relative sigma
// (sigma = sigmaRel * nominal). The correlated variance share is split
// equally over the quad-tree levels.
func (m *Model) Canonical(x, y, nominal, sigmaRel float64) Canon {
	sigma := sigmaRel * nominal
	c := Canon{Mean: nominal, Sens: make([]float64, m.total)}
	if sigma == 0 {
		return c
	}
	corrVar := m.CorrShare * sigma * sigma
	perLevel := math.Sqrt(corrVar / float64(m.Levels+1))
	for l := 0; l <= m.Levels; l++ {
		c.Sens[m.cellIndex(l, x, y)] = perLevel
	}
	c.Rand = math.Sqrt((1 - m.CorrShare) * sigma * sigma)
	return c
}

// Zero returns an all-zero canonical form sized for this model.
func (m *Model) Zero() Canon { return Canon{Sens: make([]float64, m.total)} }

// Const returns a deterministic canonical form with the given mean.
func (m *Model) Const(v float64) Canon {
	c := m.Zero()
	c.Mean = v
	return c
}

// Clone returns a deep copy.
func (c Canon) Clone() Canon {
	s := make([]float64, len(c.Sens))
	copy(s, c.Sens)
	return Canon{Mean: c.Mean, Sens: s, Rand: c.Rand}
}

// Add returns the canonical form of the sum c + o (delays along a path add
// exactly in this representation).
func (c Canon) Add(o Canon) Canon {
	r := c.Clone()
	r.AddInPlace(o)
	return r
}

// AddInPlace adds o into c, leaving c bit for bit what c.Add(o) returns,
// without allocating. c's sensitivities are written, so they must not be
// shared with another form.
func (c *Canon) AddInPlace(o Canon) {
	c.Mean += o.Mean
	for i, s := range o.Sens {
		c.Sens[i] += s
	}
	c.Rand = math.Hypot(c.Rand, o.Rand)
}

// AddConst returns c shifted by v.
func (c Canon) AddConst(v float64) Canon {
	r := c.Clone()
	r.Mean += v
	return r
}

// Neg returns -c.
func (c Canon) Neg() Canon {
	r := c.Clone()
	r.Mean = -r.Mean
	for i := range r.Sens {
		r.Sens[i] = -r.Sens[i]
	}
	return r
}

// Var returns the total variance.
func (c Canon) Var() float64 {
	var k numeric.KahanSum
	for _, s := range c.Sens {
		k.Add(s * s)
	}
	return k.Value() + c.Rand*c.Rand
}

// Std returns the standard deviation.
func (c Canon) Std() float64 { return math.Sqrt(c.Var()) }

// Cov returns the covariance with o (independent residuals do not covary).
func (c Canon) Cov(o Canon) float64 {
	var k numeric.KahanSum
	for i, s := range c.Sens {
		k.Add(s * o.Sens[i])
	}
	return k.Value()
}

// Corr returns the correlation coefficient with o, or 0 when either form is
// deterministic.
func (c Canon) Corr(o Canon) float64 {
	sa, sb := c.Std(), o.Std()
	if sa == 0 || sb == 0 {
		return 0
	}
	return numeric.Clamp(c.Cov(o)/(sa*sb), -1, 1)
}

// Gaussian returns the marginal Gaussian of the form.
func (c Canon) Gaussian() numeric.Gaussian {
	return numeric.Gaussian{Mean: c.Mean, Std: c.Std()}
}

// Percentile returns the p-th percentile of the marginal distribution.
func (c Canon) Percentile(p float64) float64 {
	s := c.Std()
	if s == 0 {
		return c.Mean
	}
	return c.Mean + s*numeric.NormalQuantile(p)
}

// ProbBelow returns P(X < x).
func (c Canon) ProbBelow(x float64) float64 {
	return numeric.NormalCDFMeanStd(x, c.Mean, c.Std())
}

// Min returns the canonical-form approximation of min(c, o) using Clark's
// moment matching: the result keeps tightness-weighted sensitivities so that
// spatial correlation survives chained min operations, and its residual term
// absorbs any variance the linear part cannot express.
func (c Canon) Min(o Canon) Canon {
	rho := c.Corr(o)
	res := numeric.ClarkMin(c.Gaussian(), o.Gaussian(), rho)
	t := res.Tightness // P(c is the minimum)
	r := Canon{Mean: res.Mean, Sens: make([]float64, len(c.Sens))}
	var lin numeric.KahanSum
	for i := range c.Sens {
		s := t*c.Sens[i] + (1-t)*o.Sens[i]
		r.Sens[i] = s
		lin.Add(s * s)
	}
	deficit := res.Std*res.Std - lin.Value()
	if deficit > 0 {
		r.Rand = math.Sqrt(deficit)
	} else {
		// Rescale the linear part so the total variance matches Clark's.
		scale := res.Std / math.Sqrt(lin.Value())
		if !math.IsInf(scale, 0) && !math.IsNaN(scale) {
			for i := range r.Sens {
				r.Sens[i] *= scale
			}
		}
		r.Rand = 0
	}
	return r
}

// Max returns the canonical-form approximation of max(c, o).
func (c Canon) Max(o Canon) Canon { return c.Neg().Min(o.Neg()).Neg() }

// Sample evaluates the form on a chip (PC vector) with the independent
// residual drawn from rng.
func (c Canon) Sample(chip []float64, rng *numeric.RNG) float64 {
	v := c.Mean
	for i, s := range c.Sens {
		if s != 0 {
			v += s * chip[i]
		}
	}
	if c.Rand != 0 {
		v += c.Rand * rng.Norm()
	}
	return v
}

// SampleChip draws a manufactured-die sample: one standard normal value per
// principal component.
func (m *Model) SampleChip(rng *numeric.RNG) []float64 {
	z := make([]float64, m.total)
	for i := range z {
		z[i] = rng.Norm()
	}
	return z
}

// Correlation returns the delay correlation between two gates at the given
// die coordinates implied by the model (equal sigma assumed). It is useful
// for validating the spatial-correlation property: nearby gates correlate
// more strongly.
func (m *Model) Correlation(x1, y1, x2, y2 float64) float64 {
	shared := 0
	for l := 0; l <= m.Levels; l++ {
		if m.cellIndex(l, x1, y1) == m.cellIndex(l, x2, y2) {
			shared++
		}
	}
	return m.CorrShare * float64(shared) / float64(m.Levels+1)
}
