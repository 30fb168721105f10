package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		v, beyond := percentile(s, tc.q)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", 100*tc.q, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of nothing = %g, want NaN", v)
	}
}

func TestPercentileSupport(t *testing.T) {
	// p99 needs 1,000 samples to have ten beyond it; 999 leave nine.
	for _, tc := range []struct {
		n    int
		want bool
	}{{1000, true}, {999, false}, {4000, true}, {7, false}} {
		s := make([]float64, tc.n)
		_, beyond := percentile(s, 0.99)
		if got := supported(beyond); got != tc.want {
			t.Errorf("p99 of %d samples: supported = %v (%d beyond), want %v", tc.n, got, beyond, tc.want)
		}
	}
	// The median of 21 samples has exactly ten beyond it.
	if _, beyond := percentile(make([]float64, 21), 0.5); !supported(beyond) {
		t.Errorf("median of 21 samples: %d beyond, want supported", beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 8}, 3, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}
