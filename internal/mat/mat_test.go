package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
}

func TestNewDenseFrom(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestNewDenseFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewDenseFrom([][]float64{{1, 2}, {3}})
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRowCopies(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row returned a view, want a copy")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 {
		t.Fatalf("T(2,1) = %v, want 6", tr.At(2, 1))
	}
}

func TestMul(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("a*b = %v, want %v", c, want)
	}
}

func TestMulDimensionError(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("a*v = %v, want [3 7]", v)
	}
}

func TestAddIntoSubInPlace(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := Identity(2)
	sum := NewDense(2, 2)
	if err := sum.AddInto(a, b); err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 2 || sum.At(1, 1) != 5 {
		t.Fatalf("sum = %v", sum)
	}
	if err := sum.SubInPlace(b); err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(a, 0) {
		t.Fatalf("(a+I)-I = %v, want %v", sum, a)
	}
	if err := sum.AddInto(a, NewDense(2, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("AddInto shape mismatch err = %v, want ErrDimension", err)
	}
	if err := sum.SubInPlace(NewDense(3, 2)); !errors.Is(err, ErrDimension) {
		t.Fatalf("SubInPlace shape mismatch err = %v, want ErrDimension", err)
	}
}

func TestSubmatrix(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Submatrix([]int{2, 0}, []int{1})
	if s.Rows() != 2 || s.Cols() != 1 || s.At(0, 0) != 8 || s.At(1, 0) != 2 {
		t.Fatalf("submatrix = %v", s)
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("symmetrized = %v", a)
	}
	// Half of −2⁻¹⁰⁷⁴ rounds to −0; Symmetrize writes +0.
	b := NewDenseFrom([][]float64{{1, -math.SmallestNonzeroFloat64}, {0, 1}})
	b.Symmetrize()
	if math.Signbit(b.At(0, 1)) || math.Signbit(b.At(1, 0)) {
		t.Fatalf("Symmetrize wrote −0:\n%v", b)
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, -9}, {4, 3}})
	if a.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v, want 9", a.MaxAbs())
	}
}

// randomSPD builds a random symmetric positive definite matrix B·Bᵀ + n·I.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	bt := b.T()
	spd, _ := b.Mul(bt)
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		llt, _ := l.Mul(l.T())
		if !llt.Equal(a, 1e-8) {
			t.Fatalf("n=%d: L·Lᵀ ≠ A (max diff matters)", n)
		}
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 6)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b, _ := a.MulVec(want)
	got, err := ch.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("solve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCholeskySolveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 5)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ch.Solve(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := a.Mul(inv)
	if !prod.Equal(Identity(5), 1e-8) {
		t.Fatalf("A·A⁻¹ ≠ I:\n%v", prod)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 0}, {0, -5}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestCholeskyPSDJitter(t *testing.T) {
	// Rank-1 PSD matrix: should succeed via jitter.
	a := NewDenseFrom([][]float64{{1, 1}, {1, 1}})
	if _, err := NewCholesky(a); err != nil {
		t.Fatalf("PSD matrix should factor with jitter: %v", err)
	}
}

func TestCholeskyMulLVec(t *testing.T) {
	a := NewDenseFrom([][]float64{{4, 0}, {0, 9}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ch.MulLVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-2) > 1e-12 || math.Abs(v[1]-3) > 1e-12 {
		t.Fatalf("L·v = %v, want [2 3]", v)
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if s := AddVec(a, b); s[2] != 9 {
		t.Fatalf("AddVec = %v", s)
	}
	if got := Select(b, []int{2, 0}); got[0] != 6 || got[1] != 4 {
		t.Fatalf("Select = %v", got)
	}
	rows := SelectCols([][]float64{a, b}, []int{2, 0})
	if len(rows) != 2 || rows[0][0] != 3 || rows[0][1] != 1 || rows[1][0] != 6 || rows[1][1] != 4 {
		t.Fatalf("SelectCols = %v", rows)
	}
	if rows[0] = append(rows[0], 7); rows[1][0] != 6 {
		t.Fatalf("an append to one row wrote into the next: %v", rows)
	}
}

// maxAbs returns the largest absolute element of v.
func maxAbs(v []float64) float64 {
	max := 0.0
	for _, x := range v {
		max = math.Max(max, math.Abs(x))
	}
	return max
}

// maxDiff returns the largest absolute element of a − b.
func maxDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		max = math.Max(max, math.Abs(a[i]-b[i]))
	}
	return max
}

// Property: for random SPD A and random b, Cholesky solve satisfies A·x ≈ b.
func TestQuickCholeskySolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x, err := ch.SolveVec(b)
		if err != nil {
			return false
		}
		ax, _ := a.MulVec(x)
		return maxDiff(ax, b) < 1e-6*(1+maxAbs(b))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution and (A·B)ᵀ = Bᵀ·Aᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := NewDense(m, k)
		b := NewDense(k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		if !a.T().T().Equal(a, 0) {
			return false
		}
		ab, _ := a.Mul(b)
		btat, _ := b.T().Mul(a.T())
		return ab.T().Equal(btat, 1e-10)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
