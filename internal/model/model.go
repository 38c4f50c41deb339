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
//
// A model also carries the report search's evaluator (see internal/protocol),
// which answers "what would the mean be if I also reported x_i?" for a
// hypothetical observed set that grows by one attribute per round:
// CondReset, then CondAdd per attribute, CondMeanInto as often as needed.
// The evaluator is a read-only view: none of the three may mutate the
// replicated state. A caller resets it after every mutation; an
// implementation that caches against its state fails, rather than answers
// stale, when the state moved since CondReset. There is no other
// hypothesis path, so an evaluator error is the caller's error.
type Model interface {
	MeanWriter
	// Dim returns the number of attributes the model covers.
	Dim() int
	// Step advances the model one time step through its transition.
	Step()
	// Condition permanently incorporates the observations.
	Condition(idx []int, vals []float64) error
	// CondReset begins a new hypothetical observed set, empty.
	CondReset() error
	// CondAdd adds attribute i at value v to the hypothetical set.
	CondAdd(i int, v float64) error
	// CondMeanInto writes the full-length conditional mean given the
	// current hypothetical set into dst (length Dim()): observed positions
	// take their hypothesised values, the rest their conditional
	// expectations.
	CondMeanInto(dst []float64) error
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
// themselves; Monte Carlo data-reduction estimation (§4.4) requires it. A
// sampler is a StateCopier too: the estimate resets one replica to the
// fitted state before each trajectory instead of cloning a fresh one.
type Sampler interface {
	StateCopier
	// SampleState draws a ground-truth vector from the current state into
	// dst, which has length Dim().
	SampleState(dst []float64, rng *rand.Rand) error
	// SampleNext draws x(t+1) given ground truth x(t) from the transition
	// into dst, which has length Dim() and may alias x.
	SampleNext(dst, x []float64, rng *rand.Rand) error
}

// IncrementalConditioner is Model, whose evaluator every family carries. The
// name stays only because the benchmark's ladder names it
// (benchmark/ladder.go).
type IncrementalConditioner = Model

// StateCopier is implemented by models whose replicated state can be taken
// from a twin — a replica of the same fit, Cloned from it or from a common
// ancestor — by copy. CopyStateFrom overwrites the receiver's state with
// src's, bit for bit, in the receiver's own storage: the answer it gives
// afterwards, and every answer after the same moves, is src's. It is a
// mutation like Step or Condition (cached evaluators unbind), allocates
// nothing, and fails without touching the receiver when src is not a twin.
// protocol.Loop uses it to let a sink replica it has proven in lock-step
// with its source take the source's epoch instead of recomputing it.
type StateCopier interface {
	Model
	CopyStateFrom(src Model) error
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
