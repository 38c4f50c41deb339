package slo

import (
	"testing"
	"time"

	"ken/internal/alloctest"
	"ken/internal/stream"
)

// TestAllocBudgetWindowApply pins Window.Apply — the only slo entry point
// on the frame-apply hot path — at zero heap allocations, slot rotation
// and its flush of the shared series included, for a frame of every kind:
// on time, late (its deviations count as violations) and heartbeat.
func TestAllocBudgetWindowApply(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	cfg := Config{LatencyBudget: time.Millisecond}
	for _, tc := range []struct {
		name    string
		st      stream.ApplyStats
		latency time.Duration
	}{
		{"on time", stream.ApplyStats{Values: 3, Deviations: 1, MaxDevEps: 1.5}, time.Microsecond},
		{"late", stream.ApplyStats{Values: 3, Deviations: 1, MaxDevEps: 1.5}, 2 * time.Millisecond},
		{"heartbeat", stream.ApplyStats{Values: 3, Heartbeat: true, MaxDevEps: 0.5}, time.Microsecond},
	} {
		m, clk := testMonitor(t, cfg)
		win := m.NewWindow()
		st := tc.st
		if got := testing.AllocsPerRun(200, func() {
			st.Step++
			clk.advance(window / numBuckets / 2) // every other frame opens a new slot
			now := clk.t.UnixNano()
			win.Apply(&st, now-int64(tc.latency), now, 1)
		}); got != 0 {
			t.Errorf("Window.Apply, %s frame: %v allocs/op, budget 0", tc.name, got)
		}
		if w := win.Status("t0", "streaming").Window; w.TotalFrames != 201 || w.Frames != 120 {
			t.Fatalf("%s: window counted %d frames (%d in the window), want 201 and 120 — rotation not exercised", tc.name, w.TotalFrames, w.Frames)
		}
	}
}
