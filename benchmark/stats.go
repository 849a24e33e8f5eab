package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p90 needs 100 samples, a p99 needs 1000.
const minBeyond = 10

// supports reports whether n samples carry the p-quantile (0 < p < 1)
// under the minBeyond rule.
func supports(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// highestSupported returns the highest of p50, p90, p99 and p99.9 that n
// samples support, or 0 when not even the median is supported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// quantile returns the p-quantile of xs by nearest rank (the smallest
// sample with at least p of the samples at or below it). xs need not be
// sorted and is not modified; an empty sample yields NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median — the same figure the driver computes with Python's
// statistics.quantiles(values, n=4) (exclusive method).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
