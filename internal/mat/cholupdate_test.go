package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: after Update(v), the factor reconstructs A + v·vᵀ.
func TestQuickCholUpdateMatchesRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64() * 3
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		if err := ch.Update(v); err != nil {
			return false
		}
		l := ch.L()
		got, _ := l.Mul(l.T())
		want := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Add(i, j, v[i]*v[j])
			}
		}
		return got.Equal(want, 1e-8*(1+want.MaxAbs()))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Update(v) then Downdate(v) round-trips to the original factor.
func TestQuickCholUpdateDowndateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64() * 2
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		before := ch.L()
		if err := ch.Update(v); err != nil {
			return false
		}
		if err := ch.Downdate(v); err != nil {
			return false
		}
		return ch.L().Equal(before, 1e-8*(1+before.MaxAbs()))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: downdating the factor of B + v·vᵀ by v recovers the factor of B.
func TestQuickCholDowndateMatchesRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		b := randomSPD(r, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64() * 2
		}
		a := b.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, v[i]*v[j])
			}
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		if err := ch.Downdate(v); err != nil {
			return false
		}
		want, err := NewCholesky(b)
		if err != nil {
			return false
		}
		return ch.L().Equal(want.L(), 1e-7*(1+b.MaxAbs()))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// A degenerate downdate (A − v·vᵀ not PD) must fail with ErrSingular and
// leave the factor fully usable, so the caller can fall back to a full
// refactorize of the matrix it actually holds.
func TestCholDowndateDegenerateLeavesFactorIntact(t *testing.T) {
	a := NewDenseFrom([][]float64{
		{4, 1, 0},
		{1, 3, 1},
		{0, 1, 2},
	})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.L()
	// v = 3·e₀ drives the (0,0) entry of A − v·vᵀ to 4 − 9 < 0.
	v := []float64{3, 0, 0}
	if err := ch.Downdate(v); !errors.Is(err, ErrSingular) {
		t.Fatalf("degenerate downdate err = %v, want ErrSingular", err)
	}
	if !ch.Valid() {
		t.Fatal("degenerate downdate invalidated the factor; pre-check should reject before mutation")
	}
	if !ch.L().Equal(before, 0) {
		t.Fatal("degenerate downdate mutated the factor")
	}
	// The fallback path: refactorize whatever the caller holds still works.
	if err := ch.Factorize(a); err != nil {
		t.Fatalf("refactorize after rejected downdate: %v", err)
	}
}

// A downdate that leaves A − v·vᵀ positive definite by a hair passes the
// pre-check, yet rounding in the rotation sweep can still drive a pivot
// negative — at the last pivot, with no later one to trip over the NaN.
// Downdate must then fail and invalidate the factor; it must never return a
// factor holding NaN.
func TestCholDowndateNearDegenerateFailsClosed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	midSweep := 0
	for it := 0; it < 2000; it++ {
		n := 2 + r.Intn(3)
		ch, err := NewCholesky(randomSPD(r, n))
		if err != nil {
			t.Fatal(err)
		}
		// v = L·u with |u| just below 1, so A − v·vᵀ = L(I − u·uᵀ)Lᵀ.
		l, u, v := ch.L(), make([]float64, n), make([]float64, n)
		norm := 0.0
		for i := range u {
			u[i] = r.NormFloat64()
			norm += u[i] * u[i]
		}
		scale := (1 - math.Pow(10, -float64(8+r.Intn(9)))) / math.Sqrt(norm)
		for i := range v {
			for k := 0; k <= i; k++ {
				v[i] += l.At(i, k) * u[k] * scale
			}
		}
		if err := ch.Downdate(v); err != nil {
			if !ch.Valid() {
				midSweep++
			}
			continue
		}
		for _, x := range ch.L().data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("case %d: downdate returned a factor holding %v", it, x)
			}
		}
	}
	if midSweep == 0 {
		t.Fatal("no downdate failed inside the sweep — test premise broken")
	}
}

// Extend must reproduce the factor of the bordered matrix: growing from the
// empty factor one column at a time matches a from-scratch factorization.
func TestQuickCholExtendMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		ch := NewCholeskyWorkspace(n)
		ch.Reset()
		col := make([]float64, 0, n)
		for m := 0; m < n; m++ {
			col = col[:m]
			for i := 0; i < m; i++ {
				col[i] = a.At(i, m)
			}
			if err := ch.Extend(col, a.At(m, m)); err != nil {
				return false
			}
		}
		want, err := NewCholesky(a)
		if err != nil {
			return false
		}
		return ch.Size() == n && ch.L().Equal(want.L(), 1e-8*(1+a.MaxAbs()))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCholExtendRejectsBadPivotIntact(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 0}, {0, 3}})
	ch := NewCholeskyWorkspace(3)
	if err := ch.Factorize(a); err != nil {
		t.Fatal(err)
	}
	before := ch.L()
	// Bordering with diag 0 and col (2, 0) gives pivot 0 − (2/√2)² < 0.
	if err := ch.Extend([]float64{2, 0}, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("extend err = %v, want ErrSingular", err)
	}
	if ch.Size() != 2 || !ch.Valid() {
		t.Fatalf("rejected extend changed the factor: size %d valid %v", ch.Size(), ch.Valid())
	}
	if !ch.L().Equal(before, 0) {
		t.Fatal("rejected extend mutated the factor")
	}
	// Capacity guard: a workspace of order 3 cannot grow to 4.
	ok := []float64{2, 0}
	if err := ch.Extend(ok, 9); err != nil {
		t.Fatalf("in-capacity extend: %v", err)
	}
	if err := ch.Extend([]float64{0, 0, 0}, 1); !errors.Is(err, ErrDimension) {
		t.Fatalf("over-capacity extend err = %v, want ErrDimension", err)
	}
}

// Regression for the poisoned-factor bug: a failed Factorize used to leave
// partial writes in the factor with solves still answering. Now failure
// invalidates the workspace until the next successful factorization.
func TestCholeskyFactorizeFailureInvalidates(t *testing.T) {
	good := NewDenseFrom([][]float64{{4, 1}, {1, 3}})
	// Indefinite: eigenvalues straddle zero, beyond the jitter ladder's reach.
	bad := NewDenseFrom([][]float64{{1, 9}, {9, 1}})
	ch := NewCholeskyWorkspace(2)
	if err := ch.Factorize(good); err != nil {
		t.Fatal(err)
	}
	if err := ch.Factorize(bad); !errors.Is(err, ErrSingular) {
		t.Fatalf("factorize indefinite err = %v, want ErrSingular", err)
	}
	if ch.Valid() {
		t.Fatal("failed Factorize left the workspace valid")
	}
	if l := ch.L(); l != nil {
		t.Fatal("L() returned a factor after failed Factorize")
	}
	if _, err := ch.SolveVec([]float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveVec after failure err = %v, want ErrSingular", err)
	}
	b := []float64{1, 2}
	if err := ch.SolveVecInPlace(b); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveVecInPlace after failure err = %v, want ErrSingular", err)
	}
	if _, err := ch.Solve(Identity(2)); !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve after failure err = %v, want ErrSingular", err)
	}
	if _, err := ch.MulLVec([]float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("MulLVec after failure err = %v, want ErrSingular", err)
	}
	if err := ch.Update([]float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("Update after failure err = %v, want ErrSingular", err)
	}
	// Recovery: the next successful Factorize restores service.
	if err := ch.Factorize(good); err != nil {
		t.Fatal(err)
	}
	x, err := ch.SolveVec([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := good.MulVec(x)
	if maxDiff(ax, []float64{1, 2}) > 1e-10 {
		t.Fatal("solve after recovery inaccurate")
	}
}

// A fresh workspace has never factorized anything; it must refuse to solve.
func TestCholeskyWorkspaceStartsInvalid(t *testing.T) {
	ch := NewCholeskyWorkspace(3)
	if ch.Valid() {
		t.Fatal("fresh workspace reports valid")
	}
	if _, err := ch.SolveVec([]float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("SolveVec on fresh workspace err = %v, want ErrSingular", err)
	}
}

// Table test for the Inf-pivot satellite: non-finite and negative inputs
// must all be rejected by the factorization rather than propagating through
// math.Sqrt into the factor.
func TestCholeskyRejectsNonFinite(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		name string
		a    *Dense
	}{
		{"inf diagonal", NewDenseFrom([][]float64{{inf, 0}, {0, 1}})},
		{"neg inf diagonal", NewDenseFrom([][]float64{{math.Inf(-1), 0}, {0, 1}})},
		{"nan diagonal", NewDenseFrom([][]float64{{nan, 0}, {0, 1}})},
		{"inf off-diagonal", NewDenseFrom([][]float64{{1, 0}, {inf, 1}})},
		{"nan off-diagonal", NewDenseFrom([][]float64{{1, 0}, {nan, 1}})},
		{"negative diagonal", NewDenseFrom([][]float64{{-1, 0}, {0, 1}})},
		{"indefinite", NewDenseFrom([][]float64{{1, 9}, {9, 1}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCholesky(tc.a); !errors.Is(err, ErrSingular) {
				t.Fatalf("NewCholesky(%s) err = %v, want ErrSingular", tc.name, err)
			}
		})
	}
}

// Up/down-dates must reject non-finite vectors before touching the factor.
func TestCholUpdateRejectsNonFinite(t *testing.T) {
	a := NewDenseFrom([][]float64{{4, 1}, {1, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := ch.L()
	for _, v := range [][]float64{{math.NaN(), 0}, {math.Inf(1), 0}, {0, math.Inf(-1)}} {
		if err := ch.Update(v); !errors.Is(err, ErrSingular) {
			t.Fatalf("Update(%v) err = %v, want ErrSingular", v, err)
		}
		if err := ch.Downdate(v); !errors.Is(err, ErrSingular) {
			t.Fatalf("Downdate(%v) err = %v, want ErrSingular", v, err)
		}
	}
	if err := ch.Update([]float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("short Update err = %v, want ErrDimension", err)
	}
	if err := ch.Downdate([]float64{1, 2, 3}); !errors.Is(err, ErrDimension) {
		t.Fatalf("long Downdate err = %v, want ErrDimension", err)
	}
	if !ch.L().Equal(before, 0) {
		t.Fatal("rejected update mutated the factor")
	}
}

func BenchmarkMulInto128(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(3))
	x := NewDense(n, n)
	y := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, rng.NormFloat64())
			y.Set(i, j, rng.NormFloat64())
		}
	}
	dst := NewDense(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.MulInto(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholUpdate(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(4))
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Update then downdate keeps the factor bounded across iterations.
		if err := ch.Update(v); err != nil {
			b.Fatal(err)
		}
		if err := ch.Downdate(v); err != nil {
			b.Fatal(err)
		}
	}
}
