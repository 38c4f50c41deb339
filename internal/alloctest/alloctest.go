// Package alloctest supports the hot-path allocation budget tests
// (TestAllocBudget* across the tree, run by `make alloc-check`).
// RaceEnabled tells a budget test whether the race detector is compiled
// in: race instrumentation allocates behind the scenes, making
// testing.AllocsPerRun counts meaningless, so budget tests skip themselves
// under -race and the race suite (`make race`) stays green. Run measures a
// budget row that has a metrics registry attached.
package alloctest

import (
	"testing"

	"ken/internal/obs"
)

// Run is testing.AllocsPerRun that also returns how many handle lookups
// (obs.Registry.Lookups) the runs made on reg, warm-up included. Handles
// are resolved at construction, so a steady-state row's budget for them is
// zero: a lookup moved into a hot loop allocates nothing on a registry hit
// and shows only in this count.
func Run(runs int, reg *obs.Registry, f func()) (allocs float64, lookups int64) {
	before := reg.Lookups()
	allocs = testing.AllocsPerRun(runs, f)
	return allocs, reg.Lookups() - before
}
