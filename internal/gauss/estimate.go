package gauss

import (
	"fmt"

	"ken/internal/mat"
)

// EstimateMean returns the per-column sample mean of data, where data[t] is
// one observation vector at time t.
func EstimateMean(data [][]float64) ([]float64, error) {
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	n := len(data[0])
	mean := make([]float64, n)
	for t, row := range data {
		if len(row) != n {
			return nil, fmt.Errorf("gauss: row %d has dim %d, want %d", t, len(row), n)
		}
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(data))
	}
	return mean, nil
}

// EstimateCov returns the unbiased sample covariance of data around mean.
// A small ridge (relative to the average variance) keeps the result usable
// by Cholesky even when attributes are perfectly correlated in the training
// window.
func EstimateCov(data [][]float64, mean []float64, ridge float64) (*mat.Dense, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("gauss: need >= 2 samples to estimate covariance, got %d", len(data))
	}
	n := len(mean)
	cov := mat.NewDense(n, n)
	for t, row := range data {
		if len(row) != n {
			return nil, fmt.Errorf("gauss: row %d has dim %d, want %d", t, len(row), n)
		}
		for i := 0; i < n; i++ {
			di := row[i] - mean[i]
			for j := i; j < n; j++ {
				cov.Add(i, j, di*(row[j]-mean[j]))
			}
		}
	}
	norm := 1 / float64(len(data)-1)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cov.At(i, j) * norm
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	if ridge > 0 {
		avgVar := 0.0
		for i := 0; i < n; i++ {
			avgVar += cov.At(i, i)
		}
		avgVar /= float64(n)
		if isZero(avgVar) {
			avgVar = 1
		}
		for i := 0; i < n; i++ {
			cov.Add(i, i, ridge*avgVar)
		}
	}
	return cov, nil
}

// isZero reports exact equality with zero (either sign). Degenerate-input
// guards and the kernels' skip rule are the places exact float comparison
// is right: any nonzero value, however tiny, is a usable divisor and a
// product that counts, while a true zero means the computation is undefined
// and must take the fallback path, or the product is a ±0 that changes no
// sum (see PredictCov).
//
//lint:comparator exact zero sentinel backing ridge-scale guards and the skip rule
func isZero(v float64) bool { return v == 0 }
