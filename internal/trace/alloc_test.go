package trace

import (
	"runtime/debug"
	"testing"

	"ken/internal/alloctest"
)

// TestAllocBudgetLoadExperiment holds LoadExperiment to the same allocation
// count at 1 000 and at 20 000 rows: the rows are views into one slab, the
// base worker hands over chunks on one channel, and no step allocates. The
// committed budget table is in docs/INVARIANTS.md. The collector is off
// while it counts: a cycle makes a few allocations of its own, and 20 000
// rows start more cycles than 1 000 do.
func TestAllocBudgetLoadExperiment(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	load := func(rows int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadExperiment("lab", 1, 100, rows-100, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := load(1000), load(20000); short != long {
		t.Fatalf("LoadExperiment allocates %v times at 1 000 rows and %v at 20 000: something is made per row", short, long)
	}
}
