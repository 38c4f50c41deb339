package sinkd

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/deploy"
	"ken/internal/stream"
	"ken/internal/wire"
)

// TestAllocBudgetSinkdApply pins the daemon's per-frame apply — decoding
// the queued body into the tenant's warmed frame, replica conditioning,
// daemon counters and the fold into the tenant's SLO window — at zero heap
// allocations for reporting frames (every attribute reported every step).
func TestAllocBudgetSinkdApply(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	d := New(Config{})
	defer d.Close()
	const runs = 100
	dep, err := deploy.Build(deploy.Params{Dataset: "garden", Seed: 1, TestSteps: runs + 2})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := stream.NewReplica(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{name: "alloc", win: d.monitor.NewWindow(), frames: make(chan queued, 4)}

	attrs := make([]int, len(dep.Test[0]))
	for i := range attrs {
		attrs[i] = i
	}
	bodies := make([][]byte, len(dep.Test))
	for i, row := range dep.Test {
		f := wire.Frame{Step: uint64(i), Attrs: attrs, Values: row}
		if bodies[i], err = wire.Encode(f, replica.Resolution()); err != nil {
			t.Fatal(err)
		}
	}
	// The first frame sizes the tenant's decode target; every later one of
	// the same shape must fit it.
	if err := d.applyFrame(tn, replica, queued{body: bodies[0]}); err != nil {
		t.Fatal(err)
	}
	next := 1
	if got := testing.AllocsPerRun(runs, func() {
		if err := d.applyFrame(tn, replica, queued{body: bodies[next]}); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 {
		t.Errorf("applyFrame: %v allocs/op, budget 0", got)
	}
	if len(tn.frame.Attrs) != len(attrs) {
		t.Fatalf("decoded frame carries %d of %d values — budget premise broken", len(tn.frame.Attrs), len(attrs))
	}
	if w := tn.win.Status(tn.name, string(StateStreaming)).Window; w.TotalFrames != runs+2 || w.Values != int64((runs+2)*len(attrs)) {
		t.Fatalf("window counted %d frames and %d values, want %d and %d — applies not reaching the window",
			w.TotalFrames, w.Values, runs+2, (runs+2)*len(attrs))
	}
}
