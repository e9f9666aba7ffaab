package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of values by linear
// interpolation between closest ranks; NaN for no values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so spreads printed by -compare match those computed from the
// benchmark's JSON lines with Python.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64((n+1)*j) / 4
		k := int(math.Floor(m))
		frac := m - float64(k)
		switch {
		case k < 1:
			k, frac = 1, 0
		case k >= n:
			k, frac = n-1, 1
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(2), at(3)
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// coverage returns the total length covered by the union of intervals.
func coverage(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	total += cur.end - cur.start
	return time.Duration(total)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
