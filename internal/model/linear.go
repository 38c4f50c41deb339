package model

import (
	"fmt"
	"math/rand"
)

// Linear is the paper's Example 3.2: an independent per-attribute linear
// prediction model X̂_i(t+1) = α_i·X̂_i(t) + β_i. Used with one attribute
// per clique it is equivalent to the single-node dual-model scheme of Jain
// et al. (DjC1's temporal-only baseline). The residual standard deviation
// of the fit drives Monte Carlo sampling.
type Linear struct {
	mean  []float64
	alpha []float64
	beta  []float64
	resSD []float64
}

var (
	_ Model   = (*Linear)(nil)
	_ Sampler = (*Linear)(nil)
)

// NewLinear creates a linear model from explicit coefficients.
func NewLinear(initial, alpha, beta, resSD []float64) (*Linear, error) {
	n := len(initial)
	if n == 0 {
		return nil, fmt.Errorf("model: linear model needs at least one attribute")
	}
	if len(alpha) != n || len(beta) != n || len(resSD) != n {
		return nil, fmt.Errorf("%w: initial %d, alpha %d, beta %d, resSD %d",
			ErrDim, n, len(alpha), len(beta), len(resSD))
	}
	l := &Linear{
		mean:  append([]float64(nil), initial...),
		alpha: append([]float64(nil), alpha...),
		beta:  append([]float64(nil), beta...),
		resSD: append([]float64(nil), resSD...),
	}
	return l, nil
}

// FitLinear learns per-attribute AR(1) coefficients by least squares on
// consecutive training rows: x(t+1) ≈ α·x(t) + β.
func FitLinear(data [][]float64) (*Linear, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("model: FitLinear needs >= 3 rows, got %d", len(data))
	}
	n := len(data[0])
	alpha := make([]float64, n)
	beta := make([]float64, n)
	resSD := make([]float64, n)
	T := len(data) - 1
	for i := 0; i < n; i++ {
		var sx, sy, sxx, sxy float64
		for t := 0; t < T; t++ {
			x, y := data[t][i], data[t+1][i]
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		den := float64(T)*sxx - sx*sx
		if den == 0 {
			// Degenerate (constant) series: fall back to identity dynamics.
			alpha[i], beta[i] = 1, 0
		} else {
			alpha[i] = (float64(T)*sxy - sx*sy) / den
			beta[i] = (sy - alpha[i]*sx) / float64(T)
		}
		var sse float64
		for t := 0; t < T; t++ {
			r := data[t+1][i] - alpha[i]*data[t][i] - beta[i]
			sse += r * r
		}
		resSD[i] = sqrtNonNeg(sse / float64(T))
	}
	return NewLinear(data[len(data)-1], alpha, beta, resSD)
}

// Dim implements Model.
func (l *Linear) Dim() int { return len(l.mean) }

// Step implements Model.
func (l *Linear) Step() {
	for i := range l.mean {
		l.mean[i] = l.alpha[i]*l.mean[i] + l.beta[i]
	}
}

// MeanInto implements MeanWriter.
func (l *Linear) MeanInto(dst []float64) error { return copyMean(dst, l.mean) }

// MeanGiven implements Model. Attributes are independent under this model,
// so conditioning only pins the observed ones.
func (l *Linear) MeanGiven(idx []int, vals []float64) ([]float64, error) {
	if err := checkObs(idx, vals, l.Dim()); err != nil {
		return nil, err
	}
	out := MeanOf(l)
	for k, i := range idx {
		out[i] = vals[k]
	}
	return out, nil
}

// Condition implements Model.
func (l *Linear) Condition(idx []int, vals []float64) error {
	if err := checkObs(idx, vals, l.Dim()); err != nil {
		return err
	}
	for k, i := range idx {
		l.mean[i] = vals[k]
	}
	return nil
}

// Clone implements Model.
func (l *Linear) Clone() Model {
	out, err := NewLinear(l.mean, l.alpha, l.beta, l.resSD)
	if err != nil {
		panic(err)
	}
	return out
}

// SampleState implements Sampler.
func (l *Linear) SampleState(rng *rand.Rand) ([]float64, error) {
	return MeanOf(l), nil
}

// SampleNext implements Sampler.
func (l *Linear) SampleNext(x []float64, rng *rand.Rand) ([]float64, error) {
	if len(x) != l.Dim() {
		return nil, fmt.Errorf("%w: sample input %d, model %d", ErrDim, len(x), l.Dim())
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = l.alpha[i]*x[i] + l.beta[i] + l.resSD[i]*rng.NormFloat64()
	}
	return out, nil
}
