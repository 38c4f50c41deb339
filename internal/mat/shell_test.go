package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomDense fills an r×c matrix with normal draws and plants exact zeros
// (first, last and a scattering in between) so MulInto's isZero skip runs.
func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
		if rng.Intn(7) == 0 {
			m.data[i] = 0
		}
	}
	m.data[0], m.data[len(m.data)-1] = 0, 0
	return m
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShellsMatchKernels pins every allocating name that survives to the
// in-place kernel it wraps, bit for bit: a shell may allocate the
// destination and nothing else. The 70×70 case is the operand size the
// removed tiled multiply used to serve; there MulInto is also held to a
// plain ascending-k triple loop, the accumulation order every replica
// depends on.
func TestShellsMatchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := []struct{ m, k, n int }{{1, 1, 1}, {2, 3, 4}, {8, 8, 8}, {5, 9, 2}, {70, 70, 70}}
	for _, s := range shapes {
		a, b := randomDense(rng, s.m, s.k), randomDense(rng, s.k, s.n)
		v := randomDense(rng, 1, s.k).data

		t.Run(fmt.Sprintf("Mul/%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			got, err := a.Mul(b)
			if err != nil {
				t.Fatal(err)
			}
			want := NewDense(s.m, s.n)
			if err := want.MulInto(a, b); err != nil {
				t.Fatal(err)
			}
			ref := make([]float64, s.m*s.n)
			for i := 0; i < s.m; i++ {
				for k := 0; k < s.k; k++ {
					for j := 0; j < s.n; j++ {
						ref[i*s.n+j] += a.At(i, k) * b.At(k, j)
					}
				}
			}
			if !sameBits(got.data, want.data) || !sameBits(want.data, ref) {
				t.Fatalf("%dx%dx%d: Mul, MulInto and the ascending-k reference disagree", s.m, s.k, s.n)
			}
		})
		t.Run(fmt.Sprintf("MulVec/%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			got, err := a.MulVec(v)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, s.m)
			if err := a.MulVecInto(want, v); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%dx%d: MulVec differs from MulVecInto", s.m, s.k)
			}
		})
		t.Run(fmt.Sprintf("Submatrix/%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rows, cols := rng.Perm(s.m)[:(s.m+1)/2], rng.Perm(s.k)[:(s.k+1)/2]
			rows = append(rows, rows[0]) // indices may repeat
			got := a.Submatrix(rows, cols)
			want := NewDense(len(rows), len(cols))
			if err := want.SubmatrixInto(a, rows, cols); err != nil {
				t.Fatal(err)
			}
			if got.rows != want.rows || got.cols != want.cols || !sameBits(got.data, want.data) {
				t.Fatalf("%dx%d: Submatrix differs from SubmatrixInto", s.m, s.k)
			}
		})
		t.Run(fmt.Sprintf("Cholesky/%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			spd := randomSPD(rng, s.k)
			got, err := NewCholesky(spd)
			if err != nil {
				t.Fatal(err)
			}
			want := NewCholeskyWorkspace(s.k)
			if err := want.Factorize(spd); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.l.data, want.l.data) {
				t.Fatalf("order %d: NewCholesky differs from Factorize", s.k)
			}
			x, err := got.SolveVec(v)
			if err != nil {
				t.Fatal(err)
			}
			y := append([]float64(nil), v...)
			if err := want.SolveVecInPlace(y); err != nil {
				t.Fatal(err)
			}
			if !sameBits(x, y) {
				t.Fatalf("order %d: SolveVec differs from SolveVecInPlace", s.k)
			}
		})
	}
}

// The shells report their kernels' dimension errors and hand back nothing.
func TestShellsPropagateKernelErrors(t *testing.T) {
	a := NewDense(2, 3)
	if out, err := a.MulVec([]float64{1, 2}); err == nil || out != nil {
		t.Fatalf("MulVec length mismatch = (%v, %v), want (nil, error)", out, err)
	}
	if ch, err := NewCholesky(a); !errors.Is(err, ErrDimension) || ch != nil {
		t.Fatalf("NewCholesky of 2x3 = (%v, %v), want (nil, ErrDimension)", ch, err)
	}
	ch, err := NewCholesky(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	if out, err := ch.SolveVec(b); err == nil || out != nil {
		t.Fatalf("SolveVec length mismatch = (%v, %v), want (nil, error)", out, err)
	}
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("SolveVec wrote through to its argument: %v", b)
	}
}
