package variation

import (
	"math"
	"testing"
	"testing/quick"

	"tsperr/internal/numeric"
)

func mustModel(t *testing.T, levels int, corr float64) *Model {
	t.Helper()
	m, err := NewModel(levels, corr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(-1, 0.5); err == nil {
		t.Error("negative levels should fail")
	}
	if _, err := NewModel(2, 1.5); err == nil {
		t.Error("corrShare > 1 should fail")
	}
	m := mustModel(t, 3, 0.5)
	if m.NumPCs() != 1+4+16+64 {
		t.Errorf("NumPCs=%d", m.NumPCs())
	}
}

func TestCanonicalVariance(t *testing.T) {
	m := mustModel(t, 2, 0.6)
	c := m.Canonical(0.3, 0.7, 100, 0.05)
	wantStd := 0.05 * 100
	if math.Abs(c.Std()-wantStd) > 1e-9 {
		t.Errorf("std=%v, want %v", c.Std(), wantStd)
	}
	if c.Mean != 100 {
		t.Errorf("mean=%v", c.Mean)
	}
	// Correlated share check.
	var corrVar float64
	for _, s := range c.Sens {
		corrVar += s * s
	}
	if math.Abs(corrVar-0.6*wantStd*wantStd) > 1e-9 {
		t.Errorf("correlated variance=%v", corrVar)
	}
}

func TestSpatialCorrelationDecaysWithDistance(t *testing.T) {
	m := mustModel(t, 4, 0.8)
	near := m.Correlation(0.1, 0.1, 0.11, 0.11)
	mid := m.Correlation(0.1, 0.1, 0.3, 0.3)
	far := m.Correlation(0.1, 0.1, 0.9, 0.9)
	if !(near >= mid && mid >= far) {
		t.Errorf("correlation should decay: near=%v mid=%v far=%v", near, mid, far)
	}
	if near > m.CorrShare+1e-12 {
		t.Errorf("correlation cannot exceed the correlated share: %v", near)
	}
	if far < m.CorrShare/float64(m.Levels+1)-1e-12 {
		t.Errorf("all gates share the global level: %v", far)
	}
}

func TestCanonCorrMatchesModelCorrelation(t *testing.T) {
	m := mustModel(t, 3, 0.7)
	a := m.Canonical(0.2, 0.2, 50, 0.04)
	b := m.Canonical(0.22, 0.21, 50, 0.04)
	want := m.Correlation(0.2, 0.2, 0.22, 0.21)
	if got := a.Corr(b); math.Abs(got-want) > 1e-9 {
		t.Errorf("corr=%v, want %v", got, want)
	}
}

func TestAddExactness(t *testing.T) {
	m := mustModel(t, 2, 0.5)
	a := m.Canonical(0.1, 0.1, 30, 0.05)
	b := m.Canonical(0.1, 0.1, 40, 0.05) // same cell: fully correlated linear parts
	sum := a.Add(b)
	if math.Abs(sum.Mean-70) > 1e-12 {
		t.Errorf("sum mean=%v", sum.Mean)
	}
	// Var(a+b) = var a + var b + 2 cov.
	want := a.Var() + b.Var() + 2*a.Cov(b)
	if math.Abs(sum.Var()-want) > 1e-9 {
		t.Errorf("sum var=%v, want %v", sum.Var(), want)
	}
}

func TestAddConstNegPercentile(t *testing.T) {
	m := mustModel(t, 1, 0.5)
	c := m.Canonical(0.5, 0.5, 10, 0.1)
	d := c.AddConst(5)
	if d.Mean != 15 || math.Abs(d.Std()-c.Std()) > 1e-12 {
		t.Error("AddConst should shift mean only")
	}
	n := c.Neg()
	if n.Mean != -10 || math.Abs(n.Std()-c.Std()) > 1e-12 {
		t.Error("Neg should flip mean and keep spread")
	}
	p99 := c.Percentile(0.99)
	p01 := c.Percentile(0.01)
	if !(p01 < c.Mean && c.Mean < p99) {
		t.Error("percentile ordering")
	}
	if math.Abs((p99-c.Mean)-(c.Mean-p01)) > 1e-9 {
		t.Error("percentiles should be symmetric")
	}
	if math.Abs(m.Const(3).Percentile(0.99)-3) > 1e-12 {
		t.Error("deterministic percentile should be the mean")
	}
}

func TestProbBelow(t *testing.T) {
	m := mustModel(t, 1, 0.5)
	c := m.Canonical(0.5, 0.5, 10, 0.1)
	if math.Abs(c.ProbBelow(10)-0.5) > 1e-12 {
		t.Error("P(X < mean) should be 0.5")
	}
	if c.ProbBelow(0) > 1e-9 {
		t.Error("deep left tail should be ~0")
	}
}

func TestMinAgainstMonteCarlo(t *testing.T) {
	m := mustModel(t, 2, 0.7)
	rng := numeric.NewRNG(23)
	a := m.Canonical(0.2, 0.3, 100, 0.06)
	b := m.Canonical(0.6, 0.7, 102, 0.05)
	mn := a.Min(b)

	const n = 100000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		chip := m.SampleChip(rng)
		x := a.Sample(chip, rng)
		y := b.Sample(chip, rng)
		v := math.Min(x, y)
		sum += v
		sum2 += v * v
	}
	mcMean := sum / n
	mcStd := math.Sqrt(sum2/n - mcMean*mcMean)
	if math.Abs(mn.Mean-mcMean) > 0.15 {
		t.Errorf("min mean=%v, MC=%v", mn.Mean, mcMean)
	}
	if math.Abs(mn.Std()-mcStd) > 0.15 {
		t.Errorf("min std=%v, MC=%v", mn.Std(), mcStd)
	}
}

func TestMinPreservesCorrelationStructure(t *testing.T) {
	m := mustModel(t, 2, 0.8)
	a := m.Canonical(0.1, 0.1, 100, 0.05)
	b := m.Canonical(0.12, 0.1, 101, 0.05)
	c := m.Canonical(0.11, 0.12, 99, 0.05)
	mn := a.Min(b)
	// The min of two gates near c should still correlate with c strongly.
	if mn.Corr(c) < 0.3 {
		t.Errorf("correlation lost through min: %v", mn.Corr(c))
	}
}

func TestMinDominatedBranch(t *testing.T) {
	m := mustModel(t, 1, 0.5)
	a := m.Canonical(0.5, 0.5, 10, 0.02)
	b := m.Canonical(0.5, 0.5, 1000, 0.02)
	mn := a.Min(b)
	if math.Abs(mn.Mean-10) > 0.01 {
		t.Errorf("min dominated by a, mean=%v", mn.Mean)
	}
}

func TestMaxMinDuality(t *testing.T) {
	m := mustModel(t, 1, 0.5)
	a := m.Canonical(0.2, 0.2, 10, 0.1)
	b := m.Canonical(0.8, 0.8, 12, 0.1)
	mx := a.Max(b)
	mn := a.Min(b)
	if math.Abs((mx.Mean+mn.Mean)-(a.Mean+b.Mean)) > 1e-9 {
		t.Error("E[min]+E[max] should equal E[a]+E[b]")
	}
}

func TestSampleMatchesMoments(t *testing.T) {
	m := mustModel(t, 2, 0.6)
	c := m.Canonical(0.4, 0.4, 200, 0.05)
	rng := numeric.NewRNG(31)
	const n = 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		chip := m.SampleChip(rng)
		v := c.Sample(chip, rng)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-c.Mean) > 0.2 {
		t.Errorf("sample mean=%v", mean)
	}
	if math.Abs(std-c.Std()) > 0.2 {
		t.Errorf("sample std=%v want %v", std, c.Std())
	}
}

func TestCorrelationSymmetryProperty(t *testing.T) {
	m := mustModel(t, 3, 0.9)
	f := func(x1, y1, x2, y2 float64) bool {
		wrap := func(v float64) float64 { return math.Abs(math.Mod(v, 1)) }
		x1, y1, x2, y2 = wrap(x1), wrap(y1), wrap(x2), wrap(y2)
		a := m.Correlation(x1, y1, x2, y2)
		b := m.Correlation(x2, y2, x1, y1)
		return a == b && a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellIndexBoundaries(t *testing.T) {
	m := mustModel(t, 3, 0.5)
	// Coordinates at or beyond 1.0 must clamp, not panic or go out of range.
	for _, xy := range [][2]float64{{0, 0}, {0.9999, 0.9999}, {1, 1}, {1.5, -0.1}} {
		c := m.Canonical(xy[0], xy[1], 10, 0.05)
		if len(c.Sens) != m.NumPCs() {
			t.Fatal("sensitivity vector sized wrong")
		}
	}
}
