package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads -compare prints are the ones the driver computes. Fewer than two
// samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		// Position i·(n+1)/4 on the 1-based sorted list; like Python, clamp
		// the index to the ends and let the weight extrapolate.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(asc)))) - 1
	return asc[min(max(rank, 0), len(asc)-1)]
}

// supportedPercentile lowers p until at least ten samples lie beyond it —
// a tail read from fewer is one outlier's value, not a percentile. It never
// goes below the median.
func supportedPercentile(n int, p float64) float64 {
	if n <= 0 {
		return p
	}
	highest := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(p, highest))
}

// tail returns the p-quantile of xs, lowered to the highest percentile the
// sample count supports.
func tail(xs []float64, p float64) float64 {
	return percentile(sorted(xs), supportedPercentile(len(xs), p))
}

// leastSquares fits y = base + slope·x. A degenerate x (all equal) puts
// everything in base.
func leastSquares(x, y []float64) (base, slope float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	return (sy - slope*sx) / n, slope
}

// mean returns the arithmetic mean, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
