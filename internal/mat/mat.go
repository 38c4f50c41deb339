// Package mat provides the dense linear algebra needed by Ken's
// probabilistic models: vectors, matrices, Cholesky factorisation with
// rank-1 up/down-dates, and triangular solves.
//
// The package is deliberately small and self-contained (stdlib only).
// Matrices are row-major dense float64. Dimensions in Ken are tiny —
// a clique rarely exceeds a dozen attributes — so there is no blocking or
// tiling; numerical robustness (symmetrisation, jitter on near-singular
// Cholesky) comes first. Speed comes from skipping exact zeros and from
// DataView, which lets gauss's fused, unrolled covariance kernels stream a
// matrix's storage directly.
//
// Every numeric operation has one implementation, the in-place kernel
// (inplace.go) that hot paths run against preallocated workspaces. The
// allocating names that cold callers still want (Mul, MulVec, Submatrix,
// Cholesky.SolveVec, NewCholesky) allocate the destination and call the
// kernel, so the two spellings cannot drift apart.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrDimension is returned (wrapped) when operand shapes are incompatible.
var ErrDimension = errors.New("mat: dimension mismatch")

// ErrSingular is returned (wrapped) when a factorisation or solve meets a
// singular or non-positive-definite matrix.
var ErrSingular = errors.New("mat: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of row slices. All rows must
// have equal length. The data is copied.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into element (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns m·b as a new matrix: MulInto on a fresh destination.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	out := NewDense(m.rows, b.cols)
	if err := out.MulInto(m, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVec returns m·v as a new vector: MulVecInto on a fresh destination.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// Submatrix returns the matrix restricted to the given row and column index
// sets, in the given order. Indices may repeat.
func (m *Dense) Submatrix(rowIdx, colIdx []int) *Dense {
	out := NewDense(len(rowIdx), len(colIdx))
	_ = out.SubmatrixInto(m, rowIdx, colIdx) // errors only when dst aliases src; out is fresh
	return out
}

// Symmetrize overwrites m with (m + mᵀ)/2. It panics when m is not square.
// This keeps covariance matrices symmetric through repeated predict/condition
// cycles despite floating-point drift. It writes no −0 off the diagonal:
// halving a pair sum of −2⁻¹⁰⁷⁴ rounds to −0, and the +0 added after the
// halving turns that into +0 and changes no other value.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Symmetrize on %dx%d", m.rows, m.cols))
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.data[i*n+j]+m.data[j*n+i])/2 + 0
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
}

// MaxAbs returns the largest absolute element, or 0 for empty matrices.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and b have the same shape and all elements within
// tol of each other.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// isZero reports exact equality with zero. Degenerate-input guards are the
// one place exact float comparison is right: any nonzero value, however
// tiny, is a usable divisor, while a true zero means the computation is
// undefined and must take the fallback path.
func isZero(v float64) bool { return v == 0 }
