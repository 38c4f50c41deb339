// Package model implements Ken's dynamic probabilistic models (§3.1):
// Markovian models that are stepped forward by a transition, queried for
// expected attribute values, and conditioned on observed subsets.
//
// One family runs on every deployed path (stream, deploy, core): the
// LinearGaussian of Example 3.3 and §5.1, a multivariate time-varying
// Gaussian with a VAR(1) transition and a seasonal (diurnal) mean profile,
// capturing both temporal and spatial correlations. The paper's simpler
// examples are its special cases rather than families of their own:
//
//   - Example 3.2 (per-attribute AR(1), the single-node dual models of
//     Jain et al.) is FitLinearGaussian with FitConfig.DiagonalA.
//   - Example 3.1 (X̂(t+1) = X̂(t), the last incorporated value) is the
//     approximate-caching baseline, scheme "apc" in internal/core.
//
// Adaptive and Switching are §6 wrappers over a LinearGaussian, reached
// only from kenbench's extensions table (Fig 15) and the root ablations.
//
// All models are deterministic replicas: two clones stepped and conditioned
// identically produce identical predictions, which is the invariant that
// keeps Ken's source and sink in sync.
package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ken/internal/gauss"
)

// Model is a replicated dynamic probabilistic model over a fixed set of
// attributes (clique-local indexing).
//
// Observations travel as a sorted pair: idx lists the observed attribute
// indices, strictly increasing, and vals[k] is the value observed for
// idx[k]. Every family accumulates over the pair in index order, so two
// replicas handed the same report perform the same floating-point
// operations in the same order and stay bitwise identical.
type Model interface {
	MeanWriter
	// Dim returns the number of attributes the model covers.
	Dim() int
	// Step advances the model one time step through its transition.
	Step()
	// MeanGiven returns the expected values after hypothetically observing
	// (idx, vals), without mutating the model.
	MeanGiven(idx []int, vals []float64) ([]float64, error)
	// Condition permanently incorporates the observations.
	Condition(idx []int, vals []float64) error
	// Clone returns an independent deep copy.
	Clone() Model
}

// MeanWriter is the one read of a model's mean: MeanInto writes the current
// expected values — the sink's answer vector — into dst (which must have
// length Dim()). Every Model provides it; hot loops use it with a reused
// buffer and cold callers go through MeanOf.
type MeanWriter interface {
	MeanInto(dst []float64) error
}

// MeanOf returns m's current expected values in a fresh slice: MeanInto on
// an allocated destination, for sampling, history and diagnostics.
func MeanOf(m Model) []float64 {
	out := make([]float64, m.Dim())
	if err := m.MeanInto(out); err != nil {
		panic(err) // out is sized to the model
	}
	return out
}

// Sampler is implemented by models that can generate synthetic data from
// themselves; Monte Carlo data-reduction estimation (§4.4) requires it.
type Sampler interface {
	Model
	// SampleState draws a ground-truth vector from the current state.
	SampleState(rng *rand.Rand) ([]float64, error)
	// SampleNext draws x(t+1) given ground truth x(t) from the transition
	// into dst, which has length Dim() and may alias x.
	SampleNext(dst, x []float64, rng *rand.Rand) error
}

// IncrementalConditioner is implemented by models that can answer the
// greedy report search's "what if I also reported x_i?" questions (see
// internal/protocol) incrementally: the hypothetical observed set grows by
// one attribute per round, and the model keeps the conditioning factorization cached between
// rounds instead of refactorizing from scratch on every evaluation
// (O(m²) per round instead of O(m³) plus allocations).
//
// The evaluator is a read-only view: none of the three methods may mutate
// the model's replicated state. Implementations cache against their
// current state generation and must fail (rather than answer stale) if the
// model mutates between calls; callers treat any error from CondAdd or
// CondMeanInto as "fall back to the from-scratch MeanGiven path", which
// remains the reference semantics.
type IncrementalConditioner interface {
	Model
	// CondReset begins a new hypothetical observed set, empty.
	CondReset() error
	// CondAdd adds attribute i at value v to the hypothetical set.
	CondAdd(i int, v float64) error
	// CondMeanInto writes the full-length conditional mean given the
	// current hypothetical set into dst (length Dim()): observed positions
	// take their hypothesised values, the rest their conditional
	// expectations — the same answer as MeanGiven on the equivalent pair,
	// to numerical tolerance.
	CondMeanInto(dst []float64) error
}

// ErrDim is returned when an observation or bound vector has the wrong
// dimensionality for the model.
var ErrDim = errors.New("model: dimension mismatch")

// checkRange validates the shape of an observation pair against dim: one
// value per index, at most dim of them, every index in range. It is all LinearGaussian needs
// before handing the pair to gauss, which checks order and finiteness itself
// before it touches any state.
func checkRange(idx []int, vals []float64, dim int) error {
	if len(vals) != len(idx) || len(idx) > dim {
		return fmt.Errorf("%w: %d observed indices, %d values, %d attributes", ErrDim, len(idx), len(vals), dim)
	}
	for _, i := range idx {
		if i < 0 || i >= dim {
			return fmt.Errorf("%w: observation index %d out of range %d", ErrDim, i, dim)
		}
	}
	return nil
}

// checkObs validates an observation pair against dim: checkRange, plus
// indices strictly increasing and values finite.
func checkObs(idx []int, vals []float64, dim int) error {
	if err := checkRange(idx, vals, dim); err != nil {
		return err
	}
	prev := -1
	for k, i := range idx {
		if i <= prev {
			return fmt.Errorf("model: observation indices not strictly increasing at %d", i)
		}
		prev = i
		if v := vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: observation %d is %v", gauss.ErrNotFinite, i, v)
		}
	}
	return nil
}

// WithinBounds reports whether every |mean_i − truth_i| ≤ eps_i — the
// ε-accuracy check of Ken's output guarantee.
func WithinBounds(mean, truth, eps []float64) bool {
	for i := range mean {
		if math.Abs(mean[i]-truth[i]) > eps[i] {
			return false
		}
	}
	return true
}
