package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first.
// cpu_p99_ms reports the highest of them that still has at least
// minTailSamples samples beyond it, so a short run never reports a
// "p99" that is really its maximum.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minTailSamples is the number of samples a reported tail percentile
// must have beyond it.
const minTailSamples = 10

// tailPercentile picks the highest candidate percentile of n samples
// with at least minTailSamples samples beyond it. It returns 0 when
// even the median has too few (n < 2*minTailSamples).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minTailSamples {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// the nearest-rank rule; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs (mean of the middle pair for even
// lengths); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by. It needs at least two
// values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	// A transcription of CPython's exclusive method, clamping included.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
