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
	mu   []float64  // n: multi-observation staging of the mean
	col  []float64  // n: rank-1 column snapshot
	cov2 *mat.Dense // n×n: multi-observation staging of Σ

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
		mu:        make([]float64, n),
		col:       make([]float64, n),
		cov2:      mat.NewDense(n, n),
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
	// AddInto and then the Symmetrize of the written-out sequence, +0 added
	// after the halving as Symmetrize adds it (no −0).
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
			v0 := ((s0+qd[i*n+j])+(r0+qd[j*n+i]))/2 + 0
			v1 := ((s1+qd[i*n+j+1])+(r1+qd[(j+1)*n+i]))/2 + 0
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
			v := ((s+qd[i*n+j])+(r+qd[j*n+i]))/2 + 0
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
// Conditioning is the rank-1 sweep, one observation at a time: observing
// x_i rescales the i-th covariance column into a rank-1 mean shift and
// covariance correction (O(n²), no factorization), and by the chain rule a
// sequence of single-variable conditionings equals the joint update of
// Condition exactly in real arithmetic (in floating point to ~1e-12
// relative, far inside the audit's 1e-9 slack). It is the only state
// update, so replica lock-step holds because both replicas run it on
// identical state — a pure function of (state, idx, vals), never of cache
// warmth. A pivot the sweep cannot take (see rank1Condition) fails the
// whole call with ErrDegenerate and leaves the distribution untouched.
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
		// Every variable observed: the posterior is a point mass, whatever
		// Σ was — heartbeat-style full observations work on singular
		// covariances.
		copy(g.mean, vals)
		g.cov.ReuseAs(n, n)
		ws.gen++
		return nil
	}
	if m == 1 {
		// Single observation — the paper's common case (one violating
		// attribute per report). rank1Condition checks its pivot before it
		// writes, so the update runs directly on the distribution.
		if err := rank1Condition(g.cov, g.mean, idx[0], vals[0], ws); err != nil {
			return err
		}
		ws.gen++
		return nil
	}
	// Multiple observations: stage the sweep on workspace copies and commit
	// only if every pivot is taken — a degenerate pivot midway must leave
	// the distribution untouched.
	ws.cov2.CopyFrom(g.cov)
	mu := ws.mu[:n]
	copy(mu, g.mean)
	for k, i := range idx {
		if err := rank1Condition(ws.cov2, mu, i, vals[k], ws); err != nil {
			return err
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
// pass.
//
// The pivot d is taken only when it is positive and finite. For a PSD Σ,
// Σ_ii = 0 forces row i to zero (|Σ_ij|² ≤ Σ_ii Σ_jj): x_i is already
// exact, so a zero d whose row is exactly zero sets μ_i = v and touches
// nothing else. Any other pivot returns ErrDegenerate with nothing
// mutated.
//
// The sweep touches only rows and columns r, s ≠ i with c_r, c_s ≠ 0: row
// and column i are zeroed afterwards, and every other term is an exact ±0
// product. Subtracting ±0 changes no bit of any entry but −0 (−0 − −0 is
// +0), and Σ holds no −0 (see Gaussian). So a report's exact row and
// column cost nothing, and the k-th of a multi-attribute sweep costs
// (n−k)², not n².
func rank1Condition(cov *mat.Dense, mu []float64, i int, v float64, ws *Workspace) error {
	n := len(mu)
	d := cov.At(i, i)
	if isZero(d) && zeroRow(cov.RowView(i)) {
		mu[i] = v
		return nil
	}
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("%w: pivot %v for attribute %d", ErrDegenerate, d, i)
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
	for _, r := range live {
		cr, row := c[r], cov.RowView(r)
		for _, s := range live {
			row[s] -= (cr * c[s]) * invd
		}
	}
	ri := cov.RowView(i)
	for s := 0; s < n; s++ {
		ri[s] = 0
	}
	for r := 0; r < n; r++ {
		cov.RowView(r)[i] = 0
	}
	return nil
}

// zeroRow reports whether every entry of row is ±0.
func zeroRow(row []float64) bool {
	for _, v := range row {
		if !isZero(v) {
			return false
		}
	}
	return true
}
