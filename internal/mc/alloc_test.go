package mc

import (
	"math/rand"
	"testing"

	"ken/internal/alloctest"
	"ken/internal/model"
	"ken/internal/trace"
)

// TestAllocBudgetMCTrajectory pins one simulated Monte Carlo step — draw
// tomorrow's truth, run the protocol epoch against it — at zero heap
// allocations on a LinearGaussian clique, with reports and without: the
// committed budget table in docs/LINT.md.
func TestAllocBudgetMCTrajectory(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	const n = 4
	tr, err := trace.GenerateGarden(41, 220)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, 200)
	for i := range cols {
		cols[i] = rows[i][:n]
	}
	lg, err := model.FitLinearGaussian(cols, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]float64{"suppressed": 1e6, "reporting": 1e-9, "mixed": 0.3} {
		eps := make([]float64, n)
		for i := range eps {
			eps[i] = e
		}
		run, err := newTrajectory(lg, eps, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if _, err := run.step(); err != nil {
				t.Fatal(err)
			}
		}
		step() // SampleNext makes its scratch on first use
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Errorf("%s step: %v allocs, budget 0", name, got)
		}
	}
}
