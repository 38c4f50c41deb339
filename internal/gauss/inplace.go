package gauss

import (
	"fmt"
	"math"

	"ken/internal/mat"
)

// Workspace holds the scratch storage for the in-place Gaussian updates
// Predict and ObserveExact, plus the incremental-conditioning evaluator
// cache (see cond.go). One workspace serves one Gaussian of dimension
// n; it is not safe for concurrent use and must never be shared between
// model replicas (a shared workspace would let one replica's update read
// the other's intermediates).
type Workspace struct {
	n    int
	all  []int      // 0..n-1, the full row index set
	mu   []float64  // n: predicted mean / conditioning staging
	w    []float64  // n: solve right-hand side
	col  []float64  // n: per-column solve / rank-1 column scratch
	bb   *mat.Dense // m×m observed block Σ_bb
	s    *mat.Dense // n×m cross block Σ_{·,b}
	sol  *mat.Dense // m×n solved block Σ_bb⁻¹ Σ_{b,·}
	cov  *mat.Dense // n×n: A·Σ
	cov2 *mat.Dense // n×n: A·Σ·Aᵀ / conditioning staging
	corr *mat.Dense // n×n: conditioning correction
	ch   *mat.Cholesky

	// gen counts state mutations of the Gaussian this workspace serves:
	// Predict and ObserveExact bump it on success. The evaluator cache
	// below is keyed on (Gaussian pointer, gen) — any mutation invalidates
	// every cached factorization, so a stale evaluator can never answer.
	gen uint64

	// Incremental-conditioning evaluator cache: the observed index set in
	// insertion order, the observed values and mean residuals, and the
	// Cholesky factor of the observed block grown one index at a time via
	// Extend. See CondReset/CondAdd/CondMeanInto.
	evalG     *Gaussian
	evalGen   uint64
	evalIdx   []int
	evalVals  []float64
	evalDelta []float64
	evalW     []float64
	evalCol   []float64
	evalCh    *mat.Cholesky
}

// NewWorkspace allocates scratch for Gaussians of dimension n.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		n:         n,
		all:       identityIndex(n),
		mu:        make([]float64, n),
		w:         make([]float64, n),
		col:       make([]float64, n),
		bb:        mat.NewDense(n, n),
		s:         mat.NewDense(n, n),
		sol:       mat.NewDense(n, n),
		cov:       mat.NewDense(n, n),
		cov2:      mat.NewDense(n, n),
		corr:      mat.NewDense(n, n),
		ch:        mat.NewCholeskyWorkspace(n),
		evalIdx:   make([]int, 0, n),
		evalVals:  make([]float64, 0, n),
		evalDelta: make([]float64, 0, n),
		evalW:     make([]float64, n),
		evalCol:   make([]float64, n),
		evalCh:    mat.NewCholeskyWorkspace(n),
	}
}

// Generation returns the workspace's mutation counter. It increments on
// every successful Predict or ObserveExact against this workspace, so any
// cached artifact derived from the served Gaussian's state (conditioning
// factorizations, query plans) can key on it for invalidation.
func (ws *Workspace) Generation() uint64 { return ws.gen }

// MeanInto copies the mean vector into dst without allocating.
func (g *Gaussian) MeanInto(dst []float64) error {
	if len(dst) != len(g.mean) {
		return fmt.Errorf("gauss: MeanInto dst len %d, want %d", len(dst), len(g.mean))
	}
	copy(dst, g.mean)
	return nil
}

// Predict pushes the belief through the linear transition in place:
// μ ← A·μ, Σ ← A·Σ·Aᵀ + Q. aT must be the transpose of a (precomputed so
// the hot path does not allocate it). The covariance goes first: with Q
// n×n it accepts only an n×n A, on which the mean half cannot fail, so an
// error leaves the belief as it was.
func (g *Gaussian) Predict(a, aT, q *mat.Dense, ws *Workspace) error {
	if err := g.PredictCov(a, aT, q, ws); err != nil {
		return err
	}
	return g.PredictMean(a, ws)
}

// PredictMean is the mean half of Predict, μ ← A·μ, and the half that
// advances the generation: no transition can skip it, while a caller whose
// readers want only the mean may owe the covariance half until something is
// about to read Σ (model.LinearGaussian does).
func (g *Gaussian) PredictMean(a *mat.Dense, ws *Workspace) error {
	if err := a.MulVecInto(ws.mu, g.mean); err != nil { // holds a, μ and the workspace to one n
		return err
	}
	copy(g.mean, ws.mu)
	ws.gen++
	return nil
}

// PredictCov is the covariance half of Predict: Σ ← A·Σ·Aᵀ + Q, symmetrised
// once at the end (Symmetrize is bitwise idempotent). It leaves the
// generation to PredictMean and unbinds the conditioning evaluator itself.
// A nil a is the caller's word that Σ is all zeros and that q is already
// Symmetrize(0 + Q): both products would be all +0 (MulInto accumulates
// from +0), so Σ becomes a copy of q — the same bits without the multiplies.
func (g *Gaussian) PredictCov(a, aT, q *mat.Dense, ws *Workspace) error {
	n := len(g.mean)
	if ws.n != n || q.Rows() != n || q.Cols() != n {
		return fmt.Errorf("gauss: workspace dim %d, Q %dx%d, distribution dim %d", ws.n, q.Rows(), q.Cols(), n)
	}
	ws.evalG = nil
	if a == nil {
		g.cov.CopyFrom(q)
		return nil
	}
	if err := ws.cov.MulInto(a, g.cov); err != nil {
		return err
	}
	if err := ws.cov2.MulInto(ws.cov, aT); err != nil {
		return err
	}
	if err := g.cov.AddInto(ws.cov2, q); err != nil {
		return err
	}
	g.cov.Symmetrize()
	return nil
}

// ObserveExact collapses the belief on exact observations in place:
// variable idx[k] is observed at vals[k]. idx must be strictly increasing
// and in range — the sorted-key form of Condition's map argument; vals must
// be finite (a NaN or Inf reaching the mean update would corrupt the
// distribution irreversibly, so non-finite values are rejected with
// ErrNotFinite before any state is touched). The observed variables become
// exact (zero variance); the kept block takes the conditional mean and
// covariance.
//
// Conditioning runs incrementally, one observation at a time: observing
// x_i rescales the i-th covariance column into a rank-1 mean shift and
// covariance correction (O(n²), no factorization), and by the chain rule a
// sequence of single-variable conditionings equals the joint batch update
// exactly in real arithmetic. In floating point the incremental and batch
// paths agree only to tolerance (~1e-12 relative, far inside the audit's
// 1e-9 slack), so replica lock-step holds because both replicas run this
// same deterministic path on identical state — a pure function of
// (state, idx, vals), never of cache warmth. A non-positive pivot falls
// back to the batch path, whose jitter ladder absorbs PSD blocks; a
// non-PD observed block leaves the distribution unmodified, as before.
func (g *Gaussian) ObserveExact(idx []int, vals []float64, ws *Workspace) error {
	n := len(g.mean)
	if ws.n != n {
		return fmt.Errorf("gauss: workspace dim %d, distribution dim %d", ws.n, n)
	}
	if err := checkObserved(idx, vals, n); err != nil {
		return err
	}
	m := len(idx)
	if m == 0 {
		return nil
	}
	if m == n {
		// Every variable observed: the posterior is a point mass. No
		// factorisation — Condition's (nil, nil, nil) case never built one,
		// so heartbeat-style full observations work on singular covariances.
		copy(g.mean, vals)
		g.cov.ReuseAs(n, n)
		ws.gen++
		return nil
	}
	if m == 1 {
		// Single observation — the paper's common case (one violating
		// attribute per report). The rank-1 pre-check is just the pivot
		// sign, so on success the update runs directly on the
		// distribution: one O(n²) pass instead of the batch path's
		// factorize/solve/multiply/subtract/symmetrize sequence.
		if rank1Condition(g.cov, g.mean, idx[0], vals[0], ws.col) {
			ws.gen++
			return nil
		}
		return g.observeExactBatch(idx, vals, ws)
	}
	// Multiple observations: stage the sequential rank-1 sweep on workspace
	// copies, committing only if every pivot is positive — a failed pivot
	// midway must leave the distribution untouched for the batch fallback.
	ws.cov2.CopyFrom(g.cov)
	mu := ws.mu[:n]
	copy(mu, g.mean)
	for k, i := range idx {
		if !rank1Condition(ws.cov2, mu, i, vals[k], ws.col) {
			return g.observeExactBatch(idx, vals, ws)
		}
	}
	g.cov.CopyFrom(ws.cov2)
	copy(g.mean, mu)
	ws.gen++
	return nil
}

// rank1Condition conditions (cov, mu) on variable i taking value v, in
// place: with d = Σ_ii and c = Σ_{·,i},
//
//	μ ← μ + c·(v − μ_i)/d,   Σ ← Σ − c·cᵀ/d,
//
// then the observed row/column is zeroed and μ_i set exactly. The rank-1
// term is computed as (c_r·c_s)·d⁻¹ — identical multiply order for (r,s)
// and (s,r) — so exact symmetry of cov is preserved without a Symmetrize
// pass. Returns false, with nothing mutated, when the pivot d is not
// strictly positive and finite (deferring to the batch path's jitter
// ladder). scratch must have length ≥ cov's order.
func rank1Condition(cov *mat.Dense, mu []float64, i int, v float64, scratch []float64) bool {
	n := len(mu)
	d := cov.At(i, i)
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return false
	}
	// Snapshot column i before any write; cov is symmetric, so the column
	// equals row i and can be read contiguously.
	c := scratch[:n]
	copy(c, cov.RowView(i))
	invd := 1 / d
	w0 := (v - mu[i]) * invd
	for r := 0; r < n; r++ {
		mu[r] += c[r] * w0
	}
	mu[i] = v
	for r := 0; r < n; r++ {
		cr := c[r]
		//lint:ignore floateq exact-zero column entries contribute only signed zeros; skipping them is the same bitwise no-op ObserveExact's batch path relies on
		if cr == 0 {
			// Every term of this row (and the mirrored column entries) is
			// ±0; subtracting a signed zero is a bitwise no-op.
			continue
		}
		row := cov.RowView(r)
		for s, cs := range c {
			row[s] -= (cr * cs) * invd
		}
	}
	ri := cov.RowView(i)
	for s := 0; s < n; s++ {
		ri[s] = 0
	}
	for r := 0; r < n; r++ {
		cov.RowView(r)[i] = 0
	}
	return true
}

// observeExactBatch is the from-scratch joint conditioning path: factorize
// the observed block Σ_bb (jitter ladder included), solve for the mean
// adjustment and correction block, subtract once. It remains both the
// fallback when a rank-1 pivot is non-positive — its jitter ladder absorbs
// PSD observed blocks — and the reference implementation the incremental
// path is cross-checked against in tests and benchmarks. idx and vals are
// pre-validated by ObserveExact.
func (g *Gaussian) observeExactBatch(idx []int, vals []float64, ws *Workspace) error {
	n := len(g.mean)
	m := len(idx)

	// Factorise Σ_bb before mutating anything: a non-PD observed block must
	// leave the distribution untouched.
	if err := ws.bb.SubmatrixInto(g.cov, idx, idx); err != nil {
		return err
	}
	if err := ws.ch.Factorize(ws.bb); err != nil {
		return fmt.Errorf("gauss: observed block not PD: %w", err)
	}

	// w = Σ_bb⁻¹ (x_b − μ_b)
	w := ws.w[:m]
	for k, i := range idx {
		w[k] = vals[k] - g.mean[i]
	}
	if err := ws.ch.SolveVecInPlace(w); err != nil {
		return err
	}

	// s = Σ_{·,b} over all n rows. Kept rows are Σ_ab; observed rows feed
	// adjustments that are overwritten by the exact values below, so
	// computing the full column block at once is safe.
	if err := ws.s.SubmatrixInto(g.cov, ws.all, idx); err != nil {
		return err
	}
	adj := ws.mu
	if err := ws.s.MulVecInto(adj, w); err != nil {
		return err
	}
	for i := range g.mean {
		g.mean[i] += adj[i]
	}
	for k, i := range idx {
		g.mean[i] = vals[k]
	}

	// sol = Σ_bb⁻¹ Σ_{b,·} column by column. Each column's solve is
	// independent, so the kept columns match Cholesky.Solve against Σ_baᵀ.
	ws.sol.ReuseAs(m, n)
	col := ws.col[:m]
	for j := 0; j < n; j++ {
		for k := 0; k < m; k++ {
			col[k] = ws.s.At(j, k)
		}
		if err := ws.ch.SolveVecInPlace(col); err != nil {
			return err
		}
		for k := 0; k < m; k++ {
			ws.sol.Set(k, j, col[k])
		}
	}
	// corr = Σ_{·,b} Σ_bb⁻¹ Σ_{b,·}; accumulate fully, subtract once —
	// incremental subtraction would reorder the floating-point sums.
	if err := ws.corr.MulInto(ws.s, ws.sol); err != nil {
		return err
	}
	if err := g.cov.SubInPlace(ws.corr); err != nil {
		return err
	}
	// Observed variables are exact: zero their rows and columns.
	for _, i := range idx {
		for j := 0; j < n; j++ {
			g.cov.Set(i, j, 0)
			g.cov.Set(j, i, 0)
		}
	}
	g.cov.Symmetrize()
	ws.gen++
	return nil
}
