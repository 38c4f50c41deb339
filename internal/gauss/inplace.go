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
	cov2 *mat.Dense // n×n: multi-observation staging
	corr *mat.Dense // n×n: conditioning correction
	ch   *mat.Cholesky

	// PredictCov's live block (see live): the rows and columns of Σ that
	// hold a nonzero entry, Σ and A packed to those columns, and T = A·Σ
	// over them, each packed row-major with stride len(liveCols). The rank-1
	// sweep borrows liveRows for its own index list.
	liveRows, liveCols []int
	sig, ac, t         []float64

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
		cov2:      mat.NewDense(n, n),
		corr:      mat.NewDense(n, n),
		ch:        mat.NewCholeskyWorkspace(n),
		liveRows:  make([]int, 0, n),
		liveCols:  make([]int, 0, n),
		sig:       make([]float64, n*n),
		ac:        make([]float64, n*n),
		t:         make([]float64, n*n),
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
// μ ← A·μ, Σ ← A·Σ·Aᵀ + Q. aT, the transpose of a, is no longer read: it
// stays in the signature only for the benchmark ladder's pinned call
// (ROADMAP [bench-debts]). The covariance goes first: it accepts only an
// n×n A and Q, on which the mean half cannot fail, so an error leaves the
// belief as it was.
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

// PredictCov is the covariance half of Predict: Σ ← Sym(A·Σ·Aᵀ + Q) in one
// fused pass over the live block of Σ. It leaves the generation to
// PredictMean and unbinds the conditioning evaluator itself. aT is not read
// (see Predict).
//
// The result is bit for bit that of the written-out sequence MulInto(A, Σ),
// MulInto(·, Aᵀ), AddInto(·, Q), Symmetrize. The skip rule: a term may be
// left out of a sum when it is an exact ±0 product, that is, one factor is
// ±0 and the other finite. Such a sum starts from +0 and can never hold −0
// (+0 + −0 = +0, and an exact cancellation rounds to +0), and adding ±0 to
// anything but −0 changes no bit. So with A finite:
//
//   - a dead row k of Σ (all ±0) adds only A_ik·0 terms to A·Σ;
//   - a dead column c of Σ makes (A·Σ)_ic = +0, whose terms A·Σ·Aᵀ skipped
//     already;
//   - zero entries of A are skipped in A·Σ, as MulInto skips them.
//
// T = A[:, live rows]·Σ[live rows, live cols] is summed from +0 in ascending
// k, each Σ′_ij is Σ_c T_ic·A_jc over the live columns c in ascending order
// plus Q_ij, and each pair is symmetrised as it is made.
//
// A nil a is the caller's word that Σ is all zeros and that q is already
// Symmetrize(0 + Q): every product would be +0, so Σ becomes a copy of q —
// the same bits without the multiplies.
func (g *Gaussian) PredictCov(a, aT, q *mat.Dense, ws *Workspace) error {
	n := len(g.mean)
	if ws.n != n || q.Rows() != n || q.Cols() != n {
		return fmt.Errorf("gauss: workspace dim %d, Q %dx%d, distribution dim %d", ws.n, q.Rows(), q.Cols(), n)
	}
	if a != nil && (a.Rows() != n || a.Cols() != n) {
		return fmt.Errorf("%w: A %dx%d, distribution dim %d", mat.ErrDimension, a.Rows(), a.Cols(), n)
	}
	ws.evalG = nil
	if a == nil {
		g.cov.CopyFrom(q)
		return nil
	}
	rows, cols := ws.live(g.cov)
	nc := len(cols)
	// Σ and A restricted to the live columns, row k at offset k·nc. With
	// every column live that is their own storage.
	sig, ac, t := g.cov.DataView(), a.DataView(), ws.t[:n*nc]
	if nc < n {
		sig, ac = ws.sig[:n*nc], ws.ac[:n*nc]
		for _, k := range rows {
			pack(sig[k*nc:(k+1)*nc], g.cov.RowView(k), cols)
		}
		for j := 0; j < n; j++ {
			pack(ac[j*nc:(j+1)*nc], a.RowView(j), cols)
		}
	}
	// T = A[:, rows]·Σ[rows, cols], the terms of A·Σ that are not ±0 in
	// MulInto's order, four columns (four independent sums) at a time. Σ is
	// overwritten below, after its last read here.
	for i := 0; i < n; i++ {
		ti, ai := t[i*nc:(i+1)*nc], a.RowView(i)
		c := 0
		for ; c+4 <= nc; c += 4 {
			var s0, s1, s2, s3 float64
			for _, k := range rows {
				aik := ai[k]
				if isZero(aik) {
					continue
				}
				sk := sig[k*nc+c : k*nc+c+4]
				s0 += aik * sk[0]
				s1 += aik * sk[1]
				s2 += aik * sk[2]
				s3 += aik * sk[3]
			}
			ti[c], ti[c+1], ti[c+2], ti[c+3] = s0, s1, s2, s3
		}
		for ; c+2 <= nc; c += 2 {
			var s0, s1 float64
			for _, k := range rows {
				aik := ai[k]
				if isZero(aik) {
					continue
				}
				sk := sig[k*nc+c : k*nc+c+2]
				s0 += aik * sk[0]
				s1 += aik * sk[1]
			}
			ti[c], ti[c+1] = s0, s1
		}
		for ; c < nc; c++ {
			var s float64
			for _, k := range rows {
				if aik := ai[k]; !isZero(aik) {
					s += aik * sig[k*nc+c]
				}
			}
			ti[c] = s
		}
	}
	// Σ′ row by row over the upper triangle, two pairs (four independent
	// sums) at a time so the additions overlap; each pair is Sym(S + Q), the
	// AddInto and then the Symmetrize of the written-out sequence.
	cd, qd := g.cov.DataView(), q.DataView()
	for i := 0; i < n; i++ {
		ti, aci := t[i*nc:(i+1)*nc], ac[i*nc:(i+1)*nc]
		aci = aci[:len(ti)]
		var d float64
		for c, tic := range ti {
			d += tic * aci[c]
		}
		cd[i*n+i] = d + qd[i*n+i]
		j := i + 1
		for ; j+1 < n; j += 2 {
			t0, a0 := t[j*nc:(j+1)*nc], ac[j*nc:(j+1)*nc]
			t1, a1 := t[(j+1)*nc:(j+2)*nc], ac[(j+1)*nc:(j+2)*nc]
			t0, a0, t1, a1 = t0[:len(ti)], a0[:len(ti)], t1[:len(ti)], a1[:len(ti)]
			var s0, r0, s1, r1 float64
			for c, tic := range ti {
				s0 += tic * a0[c]
				r0 += t0[c] * aci[c]
				s1 += tic * a1[c]
				r1 += t1[c] * aci[c]
			}
			v0 := ((s0 + qd[i*n+j]) + (r0 + qd[j*n+i])) / 2
			v1 := ((s1 + qd[i*n+j+1]) + (r1 + qd[(j+1)*n+i])) / 2
			cd[i*n+j], cd[j*n+i] = v0, v0
			cd[i*n+j+1], cd[(j+1)*n+i] = v1, v1
		}
		if j < n {
			tj, acj := t[j*nc:(j+1)*nc], ac[j*nc:(j+1)*nc]
			tj, acj = tj[:len(ti)], acj[:len(ti)]
			var s, r float64
			for c, tic := range ti {
				s += tic * acj[c]
				r += tj[c] * aci[c]
			}
			v := ((s + qd[i*n+j]) + (r + qd[j*n+i])) / 2
			cd[i*n+j], cd[j*n+i] = v, v
		}
	}
	return nil
}

// live lists, ascending, the rows of cov that hold a nonzero entry and the
// columns that do; PredictCov skips the rest. Both are checked, so nothing
// rests on Σ being symmetric: a nonzero diagonal entry makes its row and
// its column live in one read, and only a zero one costs a scan of both.
func (ws *Workspace) live(cov *mat.Dense) (rows, cols []int) {
	n, d := ws.n, cov.DataView()
	rows, cols = ws.liveRows[:0], ws.liveCols[:0]
	for i := 0; i < n; i++ {
		if !isZero(d[i*n+i]) {
			rows, cols = append(rows, i), append(cols, i)
			continue
		}
		// A zero diagonal: row i and column i are checked entry by entry.
		for j := 0; j < n; j++ {
			if !isZero(d[i*n+j]) {
				rows = append(rows, i)
				break
			}
		}
		for j := 0; j < n; j++ {
			if !isZero(d[j*n+i]) {
				cols = append(cols, i)
				break
			}
		}
	}
	return rows, cols
}

// pack gathers src at the given columns into dst.
func pack(dst, src []float64, cols []int) {
	for c, j := range cols {
		dst[c] = src[j]
	}
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
		if rank1Condition(g.cov, g.mean, idx[0], vals[0], ws) {
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
		if !rank1Condition(ws.cov2, mu, i, vals[k], ws) {
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
// ladder).
//
// The sweep touches only rows and columns r, s ≠ i with c_r, c_s ≠ 0: row
// and column i are zeroed afterwards, and every other term is an exact ±0
// product. Subtracting ±0 changes no bit of any entry but −0 (−0 − −0 is
// +0), and Σ holds no −0: New turns it into +0, and no update makes one
// (every sum here and in PredictCov starts from +0 or from a Σ entry, and
// x − y rounds an exact cancellation to +0). So a report's exact row and
// column cost nothing, and the k-th of a multi-attribute sweep costs
// (n−k)², not n².
func rank1Condition(cov *mat.Dense, mu []float64, i int, v float64, ws *Workspace) bool {
	n := len(mu)
	d := cov.At(i, i)
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return false
	}
	// Snapshot column i before any write; cov is symmetric, so the column
	// equals row i and can be read contiguously.
	c := ws.col[:n]
	copy(c, cov.RowView(i))
	invd := 1 / d
	w0 := (v - mu[i]) * invd
	for r := 0; r < n; r++ {
		mu[r] += c[r] * w0
	}
	mu[i] = v
	live := ws.liveRows[:0]
	for r, cr := range c {
		if r != i && !isZero(cr) {
			live = append(live, r)
		}
	}
	if len(live) == n-1 {
		// Dense: the contiguous sweep over every row and column is the
		// cheaper one, row and column i included.
		for r, cr := range c {
			row := cov.RowView(r)
			for s, cs := range c {
				row[s] -= (cr * cs) * invd
			}
		}
	} else {
		for _, r := range live {
			cr, row := c[r], cov.RowView(r)
			for _, s := range live {
				row[s] -= (cr * c[s]) * invd
			}
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
