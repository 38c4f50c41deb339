package mat

import (
	"testing"

	"ken/internal/alloctest"
)

// TestAllocBudgetMat pins the in-place kernels at zero heap allocations
// per call — the committed budget table in docs/LINT.md. AllocsPerRun is
// meaningless with race instrumentation, so the budget only runs in the
// plain suite.
func TestAllocBudgetMat(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	const n = 8
	a := NewDense(n, n)
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(1+i+j))
			b.Set(i, j, float64(i-j))
		}
		// Diagonal dominance keeps a positive definite for Factorize.
		a.Add(i, i, float64(n))
	}
	dst := NewDense(n, n)
	sub := NewDense(n, n)
	v := make([]float64, n)
	out := make([]float64, n)
	for i := range v {
		v[i] = float64(i) + 0.5
	}
	ch := NewCholeskyWorkspace(n)
	idx := []int{1, 3, 5}

	budget := func(name string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(100, f); got != want {
			t.Errorf("%s: %v allocs/op, budget %v", name, got, want)
		}
	}
	budget("MulInto", 0, func() {
		if err := dst.MulInto(a, b); err != nil {
			t.Fatal(err)
		}
	})
	budget("MulVecInto", 0, func() {
		if err := a.MulVecInto(out, v); err != nil {
			t.Fatal(err)
		}
	})
	budget("AddInto", 0, func() {
		if err := dst.AddInto(a, b); err != nil {
			t.Fatal(err)
		}
	})
	budget("SubInPlace", 0, func() {
		if err := dst.SubInPlace(b); err != nil {
			t.Fatal(err)
		}
	})
	budget("SubmatrixInto", 0, func() {
		if err := sub.SubmatrixInto(a, idx, idx); err != nil {
			t.Fatal(err)
		}
	})
	budget("Cholesky.Factorize", 0, func() {
		if err := ch.Factorize(a); err != nil {
			t.Fatal(err)
		}
	})
	budget("Cholesky.SolveVecInPlace", 0, func() {
		copy(out, v)
		if err := ch.SolveVecInPlace(out); err != nil {
			t.Fatal(err)
		}
	})
	// uv[0] is zero, so the sweeps skip a column as well as rotate.
	uv := make([]float64, n)
	for i := range uv {
		uv[i] = 0.01 * float64(i)
	}
	budget("Cholesky.Update+Downdate", 0, func() {
		if err := ch.Update(uv); err != nil {
			t.Fatal(err)
		}
		if err := ch.Downdate(uv); err != nil {
			t.Fatal(err)
		}
	})
	// Extend from empty back up to order n, entirely within the workspace.
	col := make([]float64, n)
	budget("Cholesky.Reset+Extend", 0, func() {
		ch.Reset()
		for m := 0; m < n; m++ {
			cm := col[:m]
			for i := 0; i < m; i++ {
				cm[i] = a.At(i, m)
			}
			if err := ch.Extend(cm, a.At(m, m)); err != nil {
				t.Fatal(err)
			}
		}
	})
	// A singular matrix fails the plain factorisation and takes the jitter
	// retry; the zero matrix also scales that jitter by one.
	ones, zero := NewDense(n, n), NewDense(n, n)
	for i := range ones.data {
		ones.data[i] = 1
	}
	budget("Cholesky.Factorize (singular, jitter retry)", 0, func() {
		if err := ch.Factorize(ones); err != nil {
			t.Fatal(err)
		}
	})
	budget("Cholesky.Factorize (zero, unit-scale jitter)", 0, func() {
		if err := ch.Factorize(zero); err != nil {
			t.Fatal(err)
		}
	})
	// Leave the workspace holding a factor of a for any later budgets.
	if err := ch.Factorize(a); err != nil {
		t.Fatal(err)
	}
}
