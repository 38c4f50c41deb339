package model

import (
	"fmt"
	"math"
	"math/rand"
)

// Constant is the paper's Example 3.1: the prediction for every attribute
// is the last value incorporated into the model. As a generative model it
// is a random walk whose per-step innovation standard deviation is learned
// from training data (needed by Monte Carlo reduction-factor estimation).
type Constant struct {
	mean   []float64
	stepSD []float64
}

var (
	_ Model   = (*Constant)(nil)
	_ Sampler = (*Constant)(nil)
)

// NewConstant creates a constant model with the given initial values and
// per-attribute one-step innovation standard deviations.
func NewConstant(initial, stepSD []float64) (*Constant, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("model: constant model needs at least one attribute")
	}
	if len(stepSD) != len(initial) {
		return nil, fmt.Errorf("%w: initial %d, stepSD %d", ErrDim, len(initial), len(stepSD))
	}
	c := &Constant{mean: make([]float64, len(initial)), stepSD: make([]float64, len(stepSD))}
	copy(c.mean, initial)
	copy(c.stepSD, stepSD)
	return c, nil
}

// FitConstant learns a constant model from training rows: the initial value
// is the last row, the innovation SD the standard deviation of one-step
// differences.
func FitConstant(data [][]float64) (*Constant, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("model: FitConstant needs >= 2 rows, got %d", len(data))
	}
	n := len(data[0])
	sd := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum, sumSq float64
		for t := 1; t < len(data); t++ {
			d := data[t][i] - data[t-1][i]
			sum += d
			sumSq += d * d
		}
		m := sum / float64(len(data)-1)
		sd[i] = sqrtNonNeg(sumSq/float64(len(data)-1) - m*m)
	}
	return NewConstant(data[len(data)-1], sd)
}

func sqrtNonNeg(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Dim implements Model.
func (c *Constant) Dim() int { return len(c.mean) }

// Step implements Model: the constant model's prediction does not change.
func (c *Constant) Step() {}

// MeanInto implements MeanWriter.
func (c *Constant) MeanInto(dst []float64) error { return copyMean(dst, c.mean) }

// MeanGiven implements Model: observed attributes take their observed
// values; the constant model carries no cross-attribute correlation, so
// other predictions are unchanged.
func (c *Constant) MeanGiven(idx []int, vals []float64) ([]float64, error) {
	if err := checkObs(idx, vals, c.Dim()); err != nil {
		return nil, err
	}
	out := MeanOf(c)
	for k, i := range idx {
		out[i] = vals[k]
	}
	return out, nil
}

// Condition implements Model.
func (c *Constant) Condition(idx []int, vals []float64) error {
	if err := checkObs(idx, vals, c.Dim()); err != nil {
		return err
	}
	for k, i := range idx {
		c.mean[i] = vals[k]
	}
	return nil
}

// Clone implements Model.
func (c *Constant) Clone() Model {
	out, err := NewConstant(c.mean, c.stepSD)
	if err != nil {
		panic(err) // invariant: an existing model is always valid
	}
	return out
}

// SampleState implements Sampler: the state is a point mass at the mean.
func (c *Constant) SampleState(rng *rand.Rand) ([]float64, error) {
	return MeanOf(c), nil
}

// SampleNext implements Sampler: random-walk innovation.
func (c *Constant) SampleNext(x []float64, rng *rand.Rand) ([]float64, error) {
	if len(x) != c.Dim() {
		return nil, fmt.Errorf("%w: sample input %d, model %d", ErrDim, len(x), c.Dim())
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + c.stepSD[i]*rng.NormFloat64()
	}
	return out, nil
}
