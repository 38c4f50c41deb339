package gauss

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/mat"
)

// TestAllocBudgetGauss pins the workspace-backed belief updates at zero
// heap allocations per epoch — the committed budget table in docs/INVARIANTS.md.
func TestAllocBudgetGauss(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	// band is a belief of dimension n with a banded, diagonally dominant Σ.
	band := func(n int) *Gaussian {
		mean := make([]float64, n)
		cov := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			mean[i] = float64(i)
			for j := 0; j < n; j++ {
				d := i - j
				if d < 0 {
					d = -d
				}
				cov.Set(i, j, 1/float64(1+d))
			}
			cov.Add(i, i, 2)
		}
		return MustNew(mean, cov)
	}
	const n = 5
	g := band(n)
	a := mat.NewDense(n, n)
	q := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 0.9)
		a.Set(i, (i+1)%n, 0.05)
		q.Set(i, i, 0.1)
	}
	aT := a.T()
	ws := NewWorkspace(n)
	dst := make([]float64, n)
	idx := []int{1, 3}
	vals := []float64{0.5, -0.25}

	budget := func(name string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(100, f); got != want {
			t.Errorf("%s: %v allocs/op, budget %v", name, got, want)
		}
	}
	budget("MeanInto", 0, func() {
		if err := g.MeanInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	budget("Predict", 0, func() {
		if err := g.Predict(a, aT, q, ws); err != nil {
			t.Fatal(err)
		}
	})
	// ObserveExact zeroes the observed rows/columns, so each run predicts
	// first to restore a positive-definite observed block (as the protocol
	// does every epoch).
	budget("Predict+ObserveExact", 0, func() {
		if err := g.Predict(a, aT, q, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.ObserveExact(idx, vals, ws); err != nil {
			t.Fatal(err)
		}
	})
	// The single-observation rank-1 fast path.
	budget("Predict+ObserveExact1", 0, func() {
		if err := g.Predict(a, aT, q, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.ObserveExact(idx[:1], vals[:1], ws); err != nil {
			t.Fatal(err)
		}
	})
	// Nothing observed: ObserveExact is a no-op, the evaluator answers the
	// prior mean.
	budget("ObserveExact (nothing observed)", 0, func() {
		if err := g.ObserveExact(nil, nil, ws); err != nil {
			t.Fatal(err)
		}
	})
	budget("CondReset+CondMeanInto (nothing observed)", 0, func() {
		if err := g.CondReset(ws); err != nil {
			t.Fatal(err)
		}
		if err := g.CondMeanInto(dst, ws); err != nil {
			t.Fatal(err)
		}
	})
	// Observing an attribute again before the next predict meets its exact
	// zero row: the pivot is the exact degenerate one, which only sets μ_i —
	// alone and as part of a pair.
	budget("Predict+ObserveExact1 twice (exact degenerate pivot)", 0, func() {
		if err := g.Predict(a, aT, q, ws); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := g.ObserveExact(idx[:1], vals[:1], ws); err != nil {
				t.Fatal(err)
			}
		}
	})
	budget("Predict+ObserveExact1+ObserveExact (exact degenerate pivot)", 0, func() {
		if err := g.Predict(a, aT, q, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.ObserveExact(idx[:1], vals[:1], ws); err != nil {
			t.Fatal(err)
		}
		if err := g.ObserveExact(idx, vals, ws); err != nil {
			t.Fatal(err)
		}
	})
	// The incremental conditioning evaluator: reset, grow the cached
	// factor by two indices, answer twice — the shape of one greedy round.
	budget("CondReset+CondAdd+CondMeanInto", 0, func() {
		if err := g.Predict(a, aT, q, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.CondReset(ws); err != nil {
			t.Fatal(err)
		}
		if err := g.CondAdd(1, 0.5, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.CondMeanInto(dst, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.CondAdd(3, -0.25, ws); err != nil {
			t.Fatal(err)
		}
		if err := g.CondMeanInto(dst, ws); err != nil {
			t.Fatal(err)
		}
	})
	// The written-out first two rounds: a two-attribute clique's search
	// answers once and ends when its second pick completes the report.
	g2, ws2, dst2 := band(2), NewWorkspace(2), make([]float64, 2)
	budget("two-pick search, n = 2", 0, func() {
		if err := g2.CondReset(ws2); err != nil {
			t.Fatal(err)
		}
		if err := g2.CondAdd(1, 0.5, ws2); err != nil {
			t.Fatal(err)
		}
		if err := g2.CondMeanInto(dst2, ws2); err != nil {
			t.Fatal(err)
		}
		if err := g2.CondAdd(0, -0.25, ws2); err != nil {
			t.Fatal(err)
		}
	})
	// The third add replays the two held rows into the generic factor.
	g4, ws4, dst4 := band(4), NewWorkspace(4), make([]float64, 4)
	budget("three adds, n = 4", 0, func() {
		if err := g4.CondReset(ws4); err != nil {
			t.Fatal(err)
		}
		for k, i := range []int{2, 0, 3} {
			if err := g4.CondAdd(i, vals[k%2], ws4); err != nil {
				t.Fatal(err)
			}
		}
		if err := g4.CondMeanInto(dst4, ws4); err != nil {
			t.Fatal(err)
		}
	})
}
