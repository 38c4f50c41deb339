// Package stats provides the time-series diagnostics Ken's model selection
// rests on: autocorrelation (temporal predictability), cross-node Pearson
// correlation (spatial structure), and seasonal-strength decomposition
// (how much of the variance a diurnal profile explains). kentrace -diagnose
// prints them so a deployment engineer can judge which model family and
// clique sizes a dataset will reward before spending Monte Carlo cycles.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrShort is returned when a series is too short for the statistic.
var ErrShort = errors.New("stats: series too short")

// isZero reports exact equality with zero. Degenerate-input guards are the
// one place exact float comparison is right: any nonzero value, however
// tiny, is a usable divisor, while a true zero means the computation is
// undefined and must take the fallback path.
func isZero(v float64) bool { return v == 0 }

// Mean returns the arithmetic mean.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance around the mean.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Autocorrelation returns the lag-k autocorrelation of x.
func Autocorrelation(x []float64, lag int) (float64, error) {
	if lag < 0 {
		return 0, fmt.Errorf("stats: negative lag %d", lag)
	}
	if len(x) <= lag+1 {
		return 0, fmt.Errorf("%w: len %d for lag %d", ErrShort, len(x), lag)
	}
	m := Mean(x)
	var num, den float64
	for t := 0; t < len(x); t++ {
		d := x[t] - m
		den += d * d
		if t+lag < len(x) {
			num += d * (x[t+lag] - m)
		}
	}
	if isZero(den) {
		return 0, fmt.Errorf("stats: constant series")
	}
	return num / den, nil
}

// Pearson returns the correlation coefficient of paired series.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("%w: len %d", ErrShort, len(x))
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if isZero(sxx) || isZero(syy) {
		return 0, fmt.Errorf("stats: constant series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// SeasonalStrength decomposes x against a cycle of the given period and
// returns the fraction of variance explained by the per-phase mean profile
// (0 = no seasonality, → 1 = purely seasonal).
func SeasonalStrength(x []float64, period int) (float64, error) {
	if period < 2 {
		return 0, fmt.Errorf("stats: period %d < 2", period)
	}
	if len(x) < 2*period {
		return 0, fmt.Errorf("%w: len %d for period %d", ErrShort, len(x), period)
	}
	profile := make([]float64, period)
	counts := make([]int, period)
	for t, v := range x {
		profile[t%period] += v
		counts[t%period]++
	}
	for p := range profile {
		profile[p] /= float64(counts[p])
	}
	total := Variance(x)
	if isZero(total) {
		return 0, fmt.Errorf("stats: constant series")
	}
	residual := make([]float64, len(x))
	for t, v := range x {
		residual[t] = v - profile[t%period]
	}
	frac := 1 - Variance(residual)/total
	if frac < 0 {
		frac = 0
	}
	return frac, nil
}

// CorrelationMatrix returns the n×n Pearson matrix of the columns of
// rows[t][i]. Constant columns yield zero correlation entries.
func CorrelationMatrix(rows [][]float64) ([][]float64, error) {
	if len(rows) < 2 {
		return nil, fmt.Errorf("%w: %d rows", ErrShort, len(rows))
	}
	n := len(rows[0])
	cols := make([][]float64, n)
	for i := 0; i < n; i++ {
		cols[i] = make([]float64, len(rows))
	}
	for t, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("stats: row %d has %d cols, want %d", t, len(row), n)
		}
		for i, v := range row {
			cols[i][t] = v
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r, err := Pearson(cols[i], cols[j])
			if err != nil {
				r = 0
			}
			out[i][j], out[j][i] = r, r
		}
	}
	return out, nil
}

// MeanAbsDiff returns the mean absolute one-step change, the statistic
// that predicts approximate-caching performance (a cache at threshold ε
// reports roughly min(1, E|Δx|/ε) of the time).
func MeanAbsDiff(x []float64) (float64, error) {
	if len(x) < 2 {
		return 0, fmt.Errorf("%w: len %d", ErrShort, len(x))
	}
	s := 0.0
	for t := 1; t < len(x); t++ {
		s += math.Abs(x[t] - x[t-1])
	}
	return s / float64(len(x)-1), nil
}
