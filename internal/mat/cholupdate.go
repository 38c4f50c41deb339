package mat

import (
	"fmt"
	"math"
)

// Rank-1 Cholesky modifications. Conditioning a Gaussian on one observed
// attribute perturbs the relevant covariance blocks by a symmetric rank-1
// term, so the per-epoch hot path wants to move an existing factor to the
// factor of A ± v·vᵀ (Update/Downdate) or of A bordered by one extra
// row/column (Extend) in O(n²), instead of refactorising from scratch in
// O(n³). All three run in place against the workspace factor and reuse the
// scratch vector allocated at construction.

// errDowndateNotPD is returned when A − v·vᵀ is not positive definite; the
// factor is left untouched so callers can fall back to a full Factorize of
// whatever they actually hold. Package-level so the hot path returns it
// without allocating.
var errDowndateNotPD = fmt.Errorf("%w: downdate would leave matrix non positive definite", ErrSingular)

// errUpdateNotFinite is returned when an up/down-date vector carries a NaN
// or Inf; the factor is left untouched.
var errUpdateNotFinite = fmt.Errorf("%w: rank-1 update vector not finite", ErrSingular)

// checkFiniteVec reports whether every entry of v is finite.
func checkFiniteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Update moves the factor of A to the factor of A + v·vᵀ in O(n²) via a
// sweep of Givens rotations in hypot form: column j's rotation zeroes the
// j-th entry of the carried vector against the diagonal pivot, exactly the
// classical cholupdate/LINPACK dchud sweep. v is read, not modified. A
// positive-definite A stays positive definite under a rank-1 addition, so
// with a valid factor and finite v the update cannot fail; a non-finite v
// is rejected up front with the factor untouched.
func (c *Cholesky) Update(v []float64) error {
	if !c.valid {
		return errFactorInvalid
	}
	if len(v) != c.n {
		return fmt.Errorf("%w: update len %d, want %d", ErrDimension, len(v), c.n)
	}
	if !checkFiniteVec(v) {
		return errUpdateNotFinite
	}
	n := c.n
	w := c.work[:n]
	copy(w, v)
	for j := 0; j < n; j++ {
		wj := w[j]
		if isZero(wj) {
			continue
		}
		ljj := c.l.data[j*n+j]
		r := math.Hypot(ljj, wj)
		cos := r / ljj
		sin := wj / ljj
		c.l.data[j*n+j] = r
		for i := j + 1; i < n; i++ {
			lij := (c.l.data[i*n+j] + sin*w[i]) / cos
			c.l.data[i*n+j] = lij
			w[i] = cos*w[i] - sin*lij
		}
	}
	return nil
}

// Downdate moves the factor of A to the factor of A − v·vᵀ in O(n²), the
// hyperbolic-rotation mirror of Update. Positive definiteness can genuinely
// be lost here, so the downdate is pre-checked before the factor is
// touched: with p = L⁻¹v, A − v·vᵀ is positive definite iff ρ² = 1 − pᵀp
// is positive. A degenerate downdate returns ErrSingular (wrapped) with the
// factor fully intact — callers fall back to refactorising the true matrix
// rather than ever holding a non-PD factor. In the marginal case where the
// pre-check passes but a pivot still collapses in floating point, the
// factor is invalidated (solves error until the next Factorize), never left
// silently unusable. v is read, not modified.
func (c *Cholesky) Downdate(v []float64) error {
	if !c.valid {
		return errFactorInvalid
	}
	if len(v) != c.n {
		return fmt.Errorf("%w: downdate len %d, want %d", ErrDimension, len(v), c.n)
	}
	if !checkFiniteVec(v) {
		return errUpdateNotFinite
	}
	n := c.n
	p := c.work[:n]
	copy(p, v)
	c.forwardSolve(p) // p = L⁻¹ v; reads the factor, mutates only scratch
	rho2 := 1.0
	for _, pi := range p {
		rho2 -= pi * pi
	}
	if rho2 <= 0 || math.IsNaN(rho2) {
		return errDowndateNotPD
	}
	w := p
	copy(w, v)
	for j := 0; j < n; j++ {
		wj := w[j]
		if isZero(wj) {
			continue
		}
		ljj := c.l.data[j*n+j]
		// r² = l_jj² − w_j², computed as a product of sum and difference to
		// dodge the cancellation of squaring first.
		r2 := (ljj - wj) * (ljj + wj)
		if r2 <= 0 || math.IsNaN(r2) {
			c.valid = false
			return errDowndateNotPD
		}
		r := math.Sqrt(r2)
		cos := r / ljj
		sin := wj / ljj
		c.l.data[j*n+j] = r
		for i := j + 1; i < n; i++ {
			lij := (c.l.data[i*n+j] - sin*w[i]) / cos
			c.l.data[i*n+j] = lij
			w[i] = cos*w[i] - sin*lij
		}
	}
	return nil
}

// Extend grows the factor of the order-m matrix A to the factor of the
// order-m+1 bordered matrix [[A, col], [colᵀ, diag]] in O(m²): one forward
// solve L·w = col gives the new off-diagonal row, and the new pivot is
// diag − wᵀw. This is how an incremental conditioning evaluator grows a
// cached observed-block factor by one attribute instead of refactorising
// the whole block. A non-positive (or non-finite) new pivot returns
// ErrSingular with the previous factor intact. Seed an empty factor with
// Reset; the workspace's construction order caps the growth.
func (c *Cholesky) Extend(col []float64, diag float64) error {
	if !c.valid {
		return errFactorInvalid
	}
	m := c.n
	if len(col) != m {
		return fmt.Errorf("%w: extend col len %d, want %d", ErrDimension, len(col), m)
	}
	if (m+1)*(m+1) > cap(c.l.data) {
		return fmt.Errorf("%w: extend to order %d exceeds workspace capacity %d", ErrDimension, m+1, cap(c.l.data))
	}
	if !checkFiniteVec(col) || math.IsNaN(diag) || math.IsInf(diag, 0) {
		return errUpdateNotFinite
	}
	w := c.work[:m]
	copy(w, col)
	c.forwardSolve(w) // L·w = col
	d := diag
	for _, wi := range w {
		d -= wi * wi
	}
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return errNotPD
	}
	// Repack the m×m factor into the m+1 stride, last row first so the
	// in-place move never overwrites a row it has yet to read (row i moves
	// from offset i·m to the strictly larger offset i·(m+1) for i ≥ 1).
	n := m + 1
	c.l.reshape(n, n)
	for i := m - 1; i >= 1; i-- {
		src := c.l.data[i*m : i*m+i+1]
		dst := c.l.data[i*n : i*n+i+1]
		copy(dst, src)
	}
	// Zero the (strictly upper) remainder of each repacked row and write
	// the new bottom row.
	for i := 0; i < m; i++ {
		row := c.l.data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			row[j] = 0
		}
	}
	last := c.l.data[m*n : (m+1)*n]
	copy(last[:m], w)
	last[m] = math.Sqrt(d)
	c.n = n
	return nil
}
