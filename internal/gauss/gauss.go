// Package gauss implements the multivariate Gaussian machinery at the heart
// of Ken's dynamic probabilistic models (ICDE'06 §3.1): the linear predict
// step, conditioning on observed attribute subsets, sampling, and parameter
// estimation from training traces.
//
// Conditioning is the operation Ken performs when the source transmits a
// subset of observed values to the sink: both replicas update
// p(X | X_obs = x_obs) and continue from the conditioned distribution.
package gauss

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ken/internal/mat"
)

// ErrEmpty is returned when an operation needs at least one variable or
// sample and none was supplied.
var ErrEmpty = errors.New("gauss: empty input")

// ErrNotFinite is returned when an observation value is NaN or ±Inf.
// Conditioning is irreversible — a non-finite value reaching the mean
// update would corrupt the distribution permanently — so observations are
// validated before any state is touched.
var ErrNotFinite = errors.New("gauss: observation not finite")

// Gaussian is an n-dimensional Gaussian distribution N(mean, cov).
// The zero value is not usable; construct with New.
//
// Invariant: cov holds no −0; the in-place kernels' skip rules rely on it
// (see rank1Condition). New canonicalises a −0 to +0, and no update makes
// one: every sum starts from +0 or from a Σ entry, x − y rounds an exact
// cancellation to +0 (and a subnormal difference is exact), and the one
// rounding that can reach −0 — halving a pair sum of −2⁻¹⁰⁷⁴ in
// Symmetrize or PredictCov — is followed by adding +0, which turns −0
// into +0 and changes nothing else.
type Gaussian struct {
	mean []float64
	cov  *mat.Dense
}

// New constructs a Gaussian from a mean vector and covariance matrix.
// The inputs are copied. The covariance must be square, symmetric (within
// floating-point tolerance; it is symmetrised), and match the mean length.
// A −0 in it becomes +0, the same value.
func New(mean []float64, cov *mat.Dense) (*Gaussian, error) {
	n := len(mean)
	if n == 0 {
		return nil, ErrEmpty
	}
	if cov.Rows() != n || cov.Cols() != n {
		return nil, fmt.Errorf("gauss: cov is %dx%d, mean has dim %d", cov.Rows(), cov.Cols(), n)
	}
	m := make([]float64, n)
	copy(m, mean)
	c := cov.Clone()
	c.Symmetrize()
	for i := 0; i < n; i++ {
		row := c.RowView(i)
		for j, v := range row {
			if isZero(v) {
				row[j] = 0
			}
		}
	}
	return &Gaussian{mean: m, cov: c}, nil
}

// MustNew is New panicking on error, for statically-correct literals in
// tests and examples.
func MustNew(mean []float64, cov *mat.Dense) *Gaussian {
	g, err := New(mean, cov)
	if err != nil {
		panic(err)
	}
	return g
}

// Dim returns the dimensionality n.
func (g *Gaussian) Dim() int { return len(g.mean) }

// Mean returns a copy of the mean vector. In Ken the mean is the sink's
// approximate answer X̂ to the SELECT * query.
func (g *Gaussian) Mean() []float64 {
	out := make([]float64, len(g.mean))
	copy(out, g.mean)
	return out
}

// Cov returns a copy of the covariance matrix.
func (g *Gaussian) Cov() *mat.Dense { return g.cov.Clone() }

// Clone returns a deep copy.
func (g *Gaussian) Clone() *Gaussian {
	return &Gaussian{mean: g.Mean(), cov: g.cov.Clone()}
}

// CopyFrom overwrites g with src's mean and covariance, bit for bit, in g's
// own storage. It is a mutation like Predict or ObserveExact: ws, g's
// workspace, advances its generation and unbinds its evaluator. It
// allocates nothing.
func (g *Gaussian) CopyFrom(src *Gaussian, ws *Workspace) error {
	n := len(g.mean)
	if len(src.mean) != n || ws.n != n {
		return fmt.Errorf("gauss: copy of dim %d into dim %d, workspace dim %d", len(src.mean), n, ws.n)
	}
	copy(g.mean, src.mean)
	g.cov.CopyFrom(src.cov)
	ws.evalG = nil
	ws.gen++
	return nil
}

// checkObserved validates an observation set against dimension n: one
// value per index, indices strictly increasing and in range, values finite.
// Conditioning is irreversible, so every entry point runs it before any
// state is touched.
func checkObserved(idx []int, vals []float64, n int) error {
	if len(vals) != len(idx) {
		return fmt.Errorf("gauss: %d observed indices, %d values", len(idx), len(vals))
	}
	prev := -1
	for k, i := range idx {
		if i < 0 || i >= n {
			return fmt.Errorf("gauss: condition index %d out of range %d", i, n)
		}
		if i <= prev {
			return fmt.Errorf("gauss: observed indices not strictly increasing at %d", i)
		}
		prev = i
		if v := vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: value %v for attribute %d", ErrNotFinite, v, i)
		}
	}
	return nil
}

// Condition returns the conditional distribution of the remaining variables
// given that variable idx[k] is observed at vals[k] (idx strictly
// increasing). This is the model update both Ken replicas apply when a
// subset of values is reported (paper §3.2, source step 4 / sink step 2);
// the in-place ObserveExact is the hot-path form, this from-scratch batch
// form is the reference the hypothesis search falls back to.
//
// The returned keep slice lists, in order, the original indices of the
// variables of the conditional distribution. If every variable is observed,
// Condition returns (nil, nil, nil): the posterior is a point mass.
func (g *Gaussian) Condition(idx []int, vals []float64) (cond *Gaussian, keep []int, err error) {
	n := g.Dim()
	if err := checkObserved(idx, vals, n); err != nil {
		return nil, nil, err
	}
	if len(idx) == 0 {
		return g.Clone(), identityIndex(n), nil
	}
	keep = complementIndex(n, idx)
	if len(keep) == 0 {
		return nil, nil, nil
	}

	// Partition: a = kept, b = observed.
	// μ_a|b = μ_a + Σ_ab Σ_bb⁻¹ (x_b − μ_b)
	// Σ_a|b = Σ_aa − Σ_ab Σ_bb⁻¹ Σ_ba
	sigAA := g.cov.Submatrix(keep, keep)
	sigAB := g.cov.Submatrix(keep, idx)
	sigBB := g.cov.Submatrix(idx, idx)

	chBB, err := mat.NewCholesky(sigBB)
	if err != nil {
		return nil, nil, fmt.Errorf("gauss: observed block not PD: %w", err)
	}
	// delta = x_b − μ_b
	delta := make([]float64, len(idx))
	for k, i := range idx {
		delta[k] = vals[k] - g.mean[i]
	}
	w, err := chBB.SolveVec(delta) // Σ_bb⁻¹ δ
	if err != nil {
		return nil, nil, err
	}
	adj, err := sigAB.MulVec(w)
	if err != nil {
		return nil, nil, err
	}
	muCond := mat.AddVec(mat.Select(g.mean, keep), adj)

	// Σ_bb⁻¹ Σ_ba via Cholesky solve, no explicit inverse.
	solved, err := chBB.Solve(sigAB.T())
	if err != nil {
		return nil, nil, err
	}
	corr, err := sigAB.Mul(solved)
	if err != nil {
		return nil, nil, err
	}
	if err := sigAA.SubInPlace(corr); err != nil { // sigAA is a fresh copy
		return nil, nil, err
	}
	sigAA.Symmetrize()
	return &Gaussian{mean: muCond, cov: sigAA}, keep, nil
}

// ConditionalMean returns only the full-length conditional mean: observed
// positions take their observed values, unobserved positions take their
// conditional expectations. This is the sink's post-report answer vector and
// the quantity the source checks against ε.
func (g *Gaussian) ConditionalMean(idx []int, vals []float64) ([]float64, error) {
	cond, keep, err := g.Condition(idx, vals)
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.Dim())
	for k, i := range idx {
		out[i] = vals[k]
	}
	if cond != nil {
		for k, i := range keep {
			out[i] = cond.mean[k]
		}
	}
	return out, nil
}

// Sample draws one sample using the provided random source.
func (g *Gaussian) Sample(rng *rand.Rand) ([]float64, error) {
	ch, err := mat.NewCholesky(g.cov)
	if err != nil {
		return nil, fmt.Errorf("gauss: covariance not PD: %w", err)
	}
	z := make([]float64, g.Dim())
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	lz, err := ch.MulLVec(z)
	if err != nil {
		return nil, err
	}
	return mat.AddVec(g.mean, lz), nil
}

func identityIndex(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// complementIndex returns {0..n-1} \ sortedIdx, in increasing order.
func complementIndex(n int, sortedIdx []int) []int {
	out := make([]int, 0, n-len(sortedIdx))
	k := 0
	for i := 0; i < n; i++ {
		if k < len(sortedIdx) && sortedIdx[k] == i {
			k++
			continue
		}
		out = append(out, i)
	}
	return out
}
