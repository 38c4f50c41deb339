package model

import (
	"testing"

	"ken/internal/alloctest"
)

// TestAllocBudgetLinearGaussian pins the per-epoch model operations at
// zero heap allocations — the committed budget table in docs/INVARIANTS.md.
func TestAllocBudgetLinearGaussian(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, lg.Dim())
	idx, vals := []int{0}, []float64{20.25}

	budget := func(name string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(100, f); got != want {
			t.Errorf("%s: %v allocs/op, budget %v", name, got, want)
		}
	}
	budget("Step", 0, func() { lg.Step() })
	// maxOwed steps without a Condition: the last one settles the owed
	// covariance transitions, so every run settles once.
	budget("Step×maxOwed (settles)", 0, func() {
		for range maxOwed {
			lg.Step()
		}
	})
	budget("MeanInto", 0, func() {
		if err := lg.MeanInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	// Condition consumes the belief's observed rows, so each run steps
	// first — exactly the per-epoch predict/condition cycle of §3.
	budget("Step+Condition", 0, func() {
		lg.Step()
		if err := lg.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
	})
	// A twin sink's epoch: the source steps and the sink copies it.
	sink := lg.Clone().(*LinearGaussian)
	budget("Step+CopyStateFrom", 0, func() {
		lg.Step()
		if err := sink.CopyStateFrom(lg); err != nil {
			t.Fatal(err)
		}
	})
}
