package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same data — the function the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); !near(s, 1) {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5 = 1", s)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("a single sample has spread %v, want 0", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.95, 100}, {1, 100}, {0.01, 10},
	} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A tail percentile counts only with at least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p, want float64
	}{
		{100000, 0.99, 0.99}, // 1000 beyond
		{1000, 0.99, 0.99},   // exactly 10 beyond
		{999, 0.99, 1 - 10.0/999},
		{200, 0.95, 0.95},
		{100, 0.99, 0.9},
		{55, 0.95, 1 - 10.0/55},
		{11, 0.95, 0.5}, // never below the median
		{0, 0.95, 0.95},
	} {
		if got := supportedPercentile(tc.n, tc.p); !near(got, tc.want) {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	// 100 samples 1..100: p99 is lowered to p90, the 90th value.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := tail(xs, 0.99); got != 90 {
		t.Errorf("tail(1..100, 0.99) = %v, want 90", got)
	}
}

// The base/per-report split recovers the line it was generated from.
func TestLeastSquaresSplit(t *testing.T) {
	var x, y []float64
	for i := 0; i < 500; i++ {
		reports := float64(i % 7)
		noise := 0.01 * float64(i%3-1) // zero-mean, uncorrelated with reports over the cycle
		x = append(x, reports)
		y = append(y, 5.5+0.75*reports+noise)
	}
	base, slope := leastSquares(x, y)
	if math.Abs(base-5.5) > 0.01 || math.Abs(slope-0.75) > 0.005 {
		t.Errorf("leastSquares = %v + %v·x, want 5.5 + 0.75·x", base, slope)
	}
	// Every epoch reporting the same number of cliques: all of it is base.
	base, slope = leastSquares([]float64{3, 3, 3}, []float64{9, 10, 11})
	if !near(base, 10) || slope != 0 {
		t.Errorf("degenerate split = %v + %v·x, want 10 + 0·x", base, slope)
	}
	if base, slope = leastSquares(nil, nil); base != 0 || slope != 0 {
		t.Errorf("empty split = %v, %v", base, slope)
	}
}
