package mat

import "fmt"

// The in-place kernels. Hot paths — the per-epoch predict/condition cycle —
// run these against preallocated workspaces so steady-state epochs stay
// allocation-free; the allocating names in mat.go and cholesky.go are
// shells over them.

// reshape resizes m to rows×cols within its existing capacity without
// touching element values; callers overwrite every element. It panics when
// the backing array is too small — workspaces are sized once at
// construction, so an undersized reuse is a programming error.
func (m *Dense) reshape(rows, cols int) {
	if rows < 0 || cols < 0 || rows*cols > cap(m.data) {
		panic(fmt.Sprintf("mat: reshape %dx%d exceeds capacity %d", rows, cols, cap(m.data)))
	}
	m.rows, m.cols = rows, cols
	m.data = m.data[:rows*cols]
}

// ReuseAs reshapes m to rows×cols within its existing capacity and zeroes
// the active region. It panics when the backing array is too small (see
// reshape).
func (m *Dense) ReuseAs(rows, cols int) {
	m.reshape(rows, cols)
	clear(m.data)
}

// MulInto computes a·b into dst, reshaping dst within its capacity. dst
// must not alias either operand. Exact-zero entries of a are skipped: the
// terms they would add are signed zeros.
func (dst *Dense) MulInto(a, b *Dense) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: mul %dx%d by %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	if dst == a || dst == b {
		return fmt.Errorf("%w: MulInto destination aliases an operand", ErrDimension)
	}
	dst.ReuseAs(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		oi := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, aik := range ai {
			if isZero(aik) {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += aik * bkj
			}
		}
	}
	return nil
}

// CopyFrom copies src into dst element-for-element, reshaping dst within
// its capacity. The non-allocating counterpart of Clone.
func (dst *Dense) CopyFrom(src *Dense) {
	dst.reshape(src.rows, src.cols)
	copy(dst.data, src.data)
}

// RowView returns row i as a mutable view into m's backing storage — the
// zero-copy counterpart of Row for kernels that stream whole rows. Writes
// through the view mutate m; the view is invalidated by reshape/ReuseAs.
func (m *Dense) RowView(i int) []float64 {
	if uint(i) >= uint(m.rows) {
		// A constant message keeps RowView small enough to inline into
		// the kernels that call it once per row.
		panic("mat: RowView row out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// DataView returns m's row-major backing storage, Rows()·Cols() long, as a
// mutable view: every RowView at once, for kernels that stride through a
// whole matrix. It is invalidated by reshape/ReuseAs.
func (m *Dense) DataView() []float64 { return m.data }

// MulVecInto computes m·v into dst, which must have length m.Rows() and
// must not alias v.
func (m *Dense) MulVecInto(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("%w: mulvec %dx%d by len %d", ErrDimension, m.rows, m.cols, len(v))
	}
	if len(dst) != m.rows {
		return fmt.Errorf("%w: mulvec dst len %d, want %d", ErrDimension, len(dst), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for k, mik := range mi {
			s += mik * v[k]
		}
		dst[i] = s
	}
	return nil
}

// AddInto computes a + b into dst, reshaping dst within its capacity.
// dst may alias a or b (every element is written exactly once from
// already-read operands).
func (dst *Dense) AddInto(a, b *Dense) error {
	if a.rows != b.rows || a.cols != b.cols {
		return fmt.Errorf("%w: add %dx%d with %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	dst.reshape(a.rows, a.cols)
	for i, av := range a.data {
		dst.data[i] = av + b.data[i]
	}
	return nil
}

// SubInPlace subtracts b from m element-wise.
func (m *Dense) SubInPlace(b *Dense) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("%w: sub %dx%d with %dx%d", ErrDimension, m.rows, m.cols, b.rows, b.cols)
	}
	for i, bv := range b.data {
		m.data[i] -= bv
	}
	return nil
}

// SubmatrixInto extracts src restricted to the given row and column index
// sets into dst, reshaping dst within its capacity. dst must not alias
// src. Indices may repeat; out-of-range indices panic.
func (dst *Dense) SubmatrixInto(src *Dense, rowIdx, colIdx []int) error {
	if dst == src {
		return fmt.Errorf("%w: SubmatrixInto destination aliases the source", ErrDimension)
	}
	dst.reshape(len(rowIdx), len(colIdx))
	for a, i := range rowIdx {
		for b, j := range colIdx {
			dst.data[a*dst.cols+b] = src.At(i, j)
		}
	}
	return nil
}
