package numeric

import "math"

// Simpson integrates f over [a, b] with n subintervals (rounded up to even)
// using composite Simpson's rule.
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	// Identical bounds are the exact degenerate-interval sentinel; any
	// tolerance would wrongly zero thin intervals.
	if a == b {
		return 0
	}
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// KahanSum accumulates float64 values with Neumaier's compensated summation,
// preserving precision when summing many small probabilities.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated sum.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than 2 values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var k KahanSum
	for _, x := range xs {
		d := x - m
		k.Add(d * d)
	}
	return k.Value() / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ApproxEq reports whether a and b agree within tol, measured as absolute
// error for small magnitudes and relative error for large ones:
// |a-b| <= tol * max(1, |a|, |b|). Use it where a computed quantity is
// compared with a reference; exact equality is for bit-identity assertions
// and exact sentinels.
func ApproxEq(a, b, tol float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(1, m)
}
