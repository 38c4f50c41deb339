package slo

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/stream"
)

// TestAllocBudgetWindowApply pins Window.Apply — the only slo entry point
// on the frame-apply hot path — at zero heap allocations, slot rotation
// and its flush of the shared series included.
func TestAllocBudgetWindowApply(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	m, clk := testMonitor(t, Config{})
	win := m.NewWindow()
	st := stream.ApplyStats{Values: 3, Deviations: 1, MaxDevEps: 1.5}
	if got := testing.AllocsPerRun(200, func() {
		st.Step++
		clk.advance(window / numBuckets / 2) // every other frame opens a new slot
		now := clk.t.UnixNano()
		win.Apply(&st, now-1000, now, 1)
	}); got != 0 {
		t.Errorf("Window.Apply: %v allocs/op, budget 0", got)
	}
	if w := win.Status("t0", "streaming").Window; w.TotalFrames != 201 || w.Frames != 120 {
		t.Fatalf("window counted %d frames (%d in the window), want 201 and 120 — rotation not exercised", w.TotalFrames, w.Frames)
	}
}
