package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by nearest
// rank, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tail ranks tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule for a timing sample of size n:
// the highest percentile that still has at least ten samples beyond it
// (p99 needs 1000 samples, p90 needs 100). It returns 50 when no tail rank
// qualifies, so the median is the only honest statistic left.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), which is how spreads are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// geomean returns the geometric mean of positive ratios (0 for none). A
// non-positive ratio makes the mean 0, which the callers treat as a failure.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a count ratio over an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
