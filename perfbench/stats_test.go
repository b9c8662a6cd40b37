package main

import (
	"math"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.75, 17.5},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 || xs[2] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestQuartileSpreadMatchesPython pins quartileSpread to the values
// Python's statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64 // (q3-q1)/median from statistics.quantiles
	}{
		// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		// quantiles([10, 11, 12, 13, 14], n=4) = [10.5, 12, 13.5].
		{[]float64{14, 10, 13, 11, 12}, 3.0 / 12},
		// quantiles([2, 4, 4, 5], n=4) = [2.5, 4.0, 4.75].
		{[]float64{2, 4, 4, 5}, 2.25 / 4},
		// quantiles([1, 3], n=4) = [0.5, 2.0, 3.5]: the clamped rank extrapolates.
		{[]float64{3, 1}, 3.0 / 2},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("single value spread = %v, want 0", got)
	}
}
