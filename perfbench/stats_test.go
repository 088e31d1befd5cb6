package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailKeepsTenSamplesBeyond pins the tail-percentile rule: the reported
// tail is the highest percentile with at least ten samples above it, and
// no tail is reported from fewer than eleven samples.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= tailBeyond; n++ {
		if _, _, ok := tail(make([]float64, n)); ok {
			t.Errorf("tail of %d samples reported; needs %d", n, tailBeyond+1)
		}
	}
	for _, n := range []int{11, 12, 50, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7919)%n] = float64(i + 1) // distinct values, shuffled
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want exactly %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-1-tailBeyond) / float64(n-1); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}
