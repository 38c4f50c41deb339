package mc

import (
	"math/rand"
	"testing"

	"ken/internal/alloctest"
	"ken/internal/model"
	"ken/internal/trace"
)

// TestAllocBudgetMCTrajectory pins one simulated Monte Carlo step — draw
// tomorrow's truth, run the protocol epoch against it — and the reset that
// starts the next trajectory at zero heap allocations on a LinearGaussian
// clique, with reports and without, and holds a whole estimate to the same
// count at 8 and at 32 trajectories: the committed budget table in
// docs/INVARIANTS.md.
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
		if err := run.reset(lg); err != nil {
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
		reset := func() {
			if err := run.reset(lg); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, reset); got != 0 {
			t.Errorf("%s reset: %v allocs, budget 0", name, got)
		}

		// A whole estimate allocates its replica once: the same count at 8
		// trajectories as at 32.
		estimate := func(trajectories int) func() {
			return func() {
				if _, err := ExpectedReports(lg, eps, Config{Trajectories: trajectories, Horizon: 48, Seed: 5}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if few, many := testing.AllocsPerRun(5, estimate(8)), testing.AllocsPerRun(5, estimate(32)); few != many {
			t.Errorf("%s estimate: %v allocs at 8 trajectories, %v at 32", name, few, many)
		}
	}
}
