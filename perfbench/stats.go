package main

import (
	"math"
	"sort"
)

// median returns the median of xs (NaN for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the spreads printed here are the ones the acceptance check computes. It
// needs at least two values; fewer give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		// Python clamps j into [1, n-1] so both neighbours exist.
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, sorting samples in place (0 for none).
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	k := int(math.Ceil(p/100*float64(len(samples)))) - 1
	if k < 0 {
		k = 0
	}
	return samples[k]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
