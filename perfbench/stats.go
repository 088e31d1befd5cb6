package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer samples past it is one outlier.
const tailBeyond = 10

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples strictly above its rank, as (value, percentile in
// 0..100). ok is false when xs has too few samples for any such
// percentile (fewer than tailBeyond+1).
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < tailBeyond+1 {
		return 0, 0, false
	}
	s := sorted(xs)
	k := n - 1 - tailBeyond // rank with exactly tailBeyond samples beyond it
	return s[k], 100 * float64(k) / float64(n-1), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (an empty layer, not a NaN).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
