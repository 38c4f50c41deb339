package mat

import (
	"fmt"
	"math"
)

// Cholesky is the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ. It supports solves against vectors and
// matrices and rank-1 up/down-dates — everything Gaussian conditioning
// needs without ever forming an explicit inverse.
type Cholesky struct {
	n     int
	l     *Dense    // lower triangular, upper part zero
	work  []float64 // rank-1 update scratch, sized to the workspace order
	valid bool      // false until a factorisation succeeds; failure poisons
}

// NewCholesky factorises the symmetric matrix a: Factorize on a fresh
// workspace of a's order.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := NewCholeskyWorkspace(a.rows)
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// NewCholeskyWorkspace returns a Cholesky sized to factorise matrices of
// order up to n via Factorize, reusing one backing array across calls. The
// workspace starts invalid: solves error with ErrSingular until the first
// successful Factorize (or Reset for incremental Extend-driven builds).
func NewCholeskyWorkspace(n int) *Cholesky {
	return &Cholesky{n: n, l: NewDense(n, n), work: make([]float64, n)}
}

// choleskyJitter is the escalating diagonal jitter ladder tried when the
// plain factorisation fails: covariance matrices assembled from finite
// samples are often PSD-but-not-PD.
var choleskyJitter = [...]float64{1e-12, 1e-10, 1e-8}

// errNotPD is the terminal Factorize failure; a package-level value so the
// hot path returns it without allocating.
var errNotPD = fmt.Errorf("%w: matrix not positive definite", ErrSingular)

// errFactorInvalid is returned by solves against a workspace whose last
// factorisation failed (or never ran): the factor holds partial writes from
// the last jitter rung and must not be consulted.
var errFactorInvalid = fmt.Errorf("%w: factorization invalid (failed or not yet run)", ErrSingular)

// Factorize refactorises c against the symmetric matrix a, reusing c's
// backing storage; a must fit within the workspace's construction order.
// Only the lower triangle of a is read. If a is merely positive
// semi-definite (common for covariance matrices of near-deterministic
// attributes), a tiny diagonal jitter proportional to the matrix scale is
// added before failing outright.
//
// A failed factorisation leaves the workspace invalid: the factor buffer
// holds partial writes from the last jitter rung, so every solve returns
// ErrSingular until the next successful Factorize.
func (c *Cholesky) Factorize(a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: cholesky of %dx%d", ErrDimension, a.rows, a.cols)
	}
	n := a.rows
	if n*n > cap(c.l.data) {
		return fmt.Errorf("%w: cholesky order %d exceeds workspace capacity %d", ErrDimension, n, cap(c.l.data))
	}
	c.n = n
	c.valid = false
	c.l.reshape(n, n)
	if tryCholeskyInto(c.l, a, 0) {
		c.valid = true
		return nil
	}
	scale := a.MaxAbs()
	if isZero(scale) {
		scale = 1
	}
	for _, eps := range choleskyJitter {
		if tryCholeskyInto(c.l, a, eps*scale) {
			c.valid = true
			return nil
		}
	}
	return errNotPD
}

// Reset makes c the (trivially valid) factor of the empty 0×0 matrix, the
// seed state for incremental factor construction via Extend.
func (c *Cholesky) Reset() {
	c.n = 0
	c.l.reshape(0, 0)
	c.valid = true
}

// tryCholeskyInto attempts the factorisation of a + jitter·I into l, which
// must match a's order. l is zeroed at entry: a failed earlier attempt
// leaves partial writes behind. Non-finite pivots are rejected: a NaN
// anywhere and a +Inf on the diagonal both poison every later column, and
// math.Sqrt(+Inf) would otherwise succeed and propagate silently.
func tryCholeskyInto(l, a *Dense, jitter float64) bool {
	n := a.rows
	clear(l.data)
	for j := 0; j < n; j++ {
		d := a.At(j, j) + jitter
		for k := 0; k < j; k++ {
			ljk := l.data[j*n+k]
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
		ljj := math.Sqrt(d)
		l.data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = s / ljj
		}
	}
	return true
}

// Size returns the dimension n.
func (c *Cholesky) Size() int { return c.n }

// Valid reports whether the workspace holds a usable factor (the last
// Factorize/Update/Downdate/Extend succeeded).
func (c *Cholesky) Valid() bool { return c.valid }

// L returns a copy of the lower-triangular factor, or nil when the factor
// is invalid (the last factorisation failed).
func (c *Cholesky) L() *Dense {
	if !c.valid {
		return nil
	}
	return c.l.Clone()
}

// SolveVec solves A·x = b and returns x: SolveVecInPlace on a copy of b.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	x := append([]float64(nil), b...)
	if err := c.SolveVecInPlace(x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecInPlace solves A·x = b, overwriting b with x.
func (c *Cholesky) SolveVecInPlace(b []float64) error {
	if !c.valid {
		return errFactorInvalid
	}
	if len(b) != c.n {
		return fmt.Errorf("%w: solve len %d, want %d", ErrDimension, len(b), c.n)
	}
	c.forwardSolve(b)
	c.backSolve(b)
	return nil
}

// Solve solves A·X = B column-by-column and returns X.
func (c *Cholesky) Solve(b *Dense) (*Dense, error) {
	if !c.valid {
		return nil, errFactorInvalid
	}
	if b.rows != c.n {
		return nil, fmt.Errorf("%w: solve %dx%d against order %d", ErrDimension, b.rows, b.cols, c.n)
	}
	out := NewDense(c.n, b.cols)
	col := make([]float64, c.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < c.n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		c.forwardSolve(col)
		c.backSolve(col)
		for i := 0; i < c.n; i++ {
			out.data[i*out.cols+j] = col[i]
		}
	}
	return out, nil
}

// forwardSolve solves L·y = b in place.
func (c *Cholesky) forwardSolve(b []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l.data[i*n : i*n+i]
		for k, lik := range row {
			s -= lik * b[k]
		}
		b[i] = s / c.l.data[i*n+i]
	}
}

// backSolve solves Lᵀ·x = y in place.
func (c *Cholesky) backSolve(b []float64) {
	n := c.n
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.data[k*n+i] * b[k]
		}
		b[i] = s / c.l.data[i*n+i]
	}
}

// MulLVec returns L·v, used to transform standard normal samples into
// samples with covariance A: MulLVecInto on a fresh destination.
func (c *Cholesky) MulLVec(v []float64) ([]float64, error) {
	out := make([]float64, len(v))
	if err := c.MulLVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulLVecInto writes L·v into dst. dst may alias v: row i reads v[0..i]
// only, so the rows are computed from the last up and each overwrites an
// entry no later row reads. Each row still sums in ascending k.
//
// Rows go four at a time, i−3..i: one pass over v[0..i−3] feeds four
// independent accumulators, each row then adds its own last few terms, and
// the four are written only after all of them have read v. The one-row
// loop takes the n mod 4 rows left at the top.
func (c *Cholesky) MulLVecInto(dst, v []float64) error {
	if !c.valid {
		return errFactorInvalid
	}
	if len(v) != c.n || len(dst) != c.n {
		return fmt.Errorf("%w: MulLVecInto dst len %d, v len %d, want %d", ErrDimension, len(dst), len(v), c.n)
	}
	n, l := c.n, c.l.data
	i := n - 1
	for ; i >= 3; i -= 4 {
		shared := v[:i-2] // columns 0..i−3, read by all four rows
		r0 := l[(i-3)*n:][:len(shared)]
		r1 := l[(i-2)*n:][:len(shared)]
		r2 := l[(i-1)*n:][:len(shared)]
		r3 := l[i*n:][:len(shared)]
		var s0, s1, s2, s3 float64
		for k, vk := range shared {
			s0 += r0[k] * vk
			s1 += r1[k] * vk
			s2 += r2[k] * vk
			s3 += r3[k] * vk
		}
		u0, u1, u2 := v[i-2], v[i-1], v[i]
		s1 += l[(i-2)*n+i-2] * u0
		s2 += l[(i-1)*n+i-2] * u0
		s2 += l[(i-1)*n+i-1] * u1
		s3 += l[i*n+i-2] * u0
		s3 += l[i*n+i-1] * u1
		s3 += l[i*n+i] * u2
		dst[i-3], dst[i-2], dst[i-1], dst[i] = s0, s1, s2, s3
	}
	for ; i >= 0; i-- {
		s := 0.0
		row := l[i*n : i*n+i+1]
		for k, lik := range row {
			s += lik * v[k]
		}
		dst[i] = s
	}
	return nil
}
