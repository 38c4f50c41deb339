// Package modeltest holds the one fixture the protocol, mc and core tests
// share: a model whose every answer can be worked out by hand.
package modeltest

import (
	"fmt"
	"math/rand"
	"slices"

	"ken/internal/model"
)

// RandomWalk predicts, per attribute, the last value conditioned in (the
// paper's Example 3.1) and samples a Gaussian random walk with the given
// step SDs. Attributes are independent; observations are not validated.
type RandomWalk struct{ mean, sd []float64 }

var _ model.Sampler = (*RandomWalk)(nil)

// NewRandomWalk copies initial (the starting prediction) and stepSD.
func NewRandomWalk(initial, stepSD []float64) *RandomWalk {
	return &RandomWalk{append([]float64(nil), initial...), append([]float64(nil), stepSD...)}
}

func (w *RandomWalk) Dim() int           { return len(w.mean) }
func (w *RandomWalk) Step()              {}
func (w *RandomWalk) Clone() model.Model { return NewRandomWalk(w.mean, w.sd) }
func (w *RandomWalk) MeanInto(dst []float64) error {
	if len(dst) != len(w.mean) {
		return model.ErrDim
	}
	copy(dst, w.mean)
	return nil
}
func (w *RandomWalk) Condition(idx []int, vals []float64) error {
	for k, i := range idx {
		w.mean[i] = vals[k]
	}
	return nil
}
func (w *RandomWalk) MeanGiven(idx []int, vals []float64) ([]float64, error) {
	c := NewRandomWalk(w.mean, nil)
	return c.mean, c.Condition(idx, vals)
}
func (w *RandomWalk) SampleState(dst []float64, _ *rand.Rand) error { return w.MeanInto(dst) }

// CopyStateFrom takes the last values of a walk with the same step SDs.
func (w *RandomWalk) CopyStateFrom(src model.Model) error {
	s, ok := src.(*RandomWalk)
	if !ok || len(s.mean) != len(w.mean) || !slices.Equal(s.sd, w.sd) {
		return fmt.Errorf("modeltest: CopyStateFrom needs a RandomWalk with the same step SDs")
	}
	copy(w.mean, s.mean)
	return nil
}
func (w *RandomWalk) SampleNext(dst, x []float64, rng *rand.Rand) error {
	for i := range x {
		dst[i] = x[i] + w.sd[i]*rng.NormFloat64()
	}
	return nil
}
