package main

import (
	"testing"
	"time"
)

func TestDueSchedule(t *testing.T) {
	const rate = 2000
	if got := dueAt(0, rate); got != 0 {
		t.Errorf("frame 0 due at %v", got)
	}
	if got := dueAt(1, rate); got != 500*time.Microsecond {
		t.Errorf("frame 1 due at %v, want 500µs", got)
	}
	if got := dueAt(40000, rate); got != 20*time.Second {
		t.Errorf("frame 40000 due at %v, want 20s", got)
	}
	for _, tc := range []struct {
		elapsed time.Duration
		n, want int
	}{
		{0, 100, 1},                      // frame 0 is due at once
		{499 * time.Microsecond, 100, 1}, // frame 1 not yet
		{500 * time.Microsecond, 100, 2}, // frame 1 exactly due
		{10 * time.Millisecond, 100, 21}, // a stall: everything due goes out together
		{time.Second, 100, 100},          // never more than there are
	} {
		if got := dueCount(tc.elapsed, rate, tc.n); got != tc.want {
			t.Errorf("dueCount(%v) = %d, want %d", tc.elapsed, got, tc.want)
		}
	}
	// Nothing is ever sent early: the frames due by a frame's own due time
	// include it and none after it.
	for i := 0; i < 5000; i += 7 {
		if got := dueCount(dueAt(i, rate), rate, 1<<30); got != i+1 {
			t.Fatalf("at frame %d's due time %d frames are due, want %d", i, got, i+1)
		}
	}
}

func TestAnsweredAtMatchesFramesToProbes(t *testing.T) {
	ms := time.Millisecond
	probes := []probe{
		{Sent: 0, Recv: 1 * ms, Step: 0, OK: true},       // nothing applied yet
		{Sent: 1 * ms, Recv: 2 * ms, Step: 2, OK: true},  // frames 0 and 1 visible
		{Sent: 2 * ms, Recv: 3 * ms, Step: 9, OK: false}, // a failed query shows nothing
		{Sent: 3 * ms, Recv: 4 * ms, Step: 2, OK: true},
		{Sent: 4 * ms, Recv: 5 * ms, Step: 4, OK: true}, // frames 2 and 3
	}
	at := answeredAt(6, probes)
	want := []time.Duration{2 * ms, 2 * ms, 5 * ms, 5 * ms, -1, -1} // 4 and 5 never answered
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("frame %d answered at %v, want %v", i, at[i], want[i])
		}
	}
	// A probe showing more steps than this run has frames answers them all.
	at = answeredAt(2, []probe{{Recv: 7 * ms, Step: 50, OK: true}})
	if at[0] != 7*ms || at[1] != 7*ms {
		t.Errorf("over-full probe: %v", at)
	}
}

// A shed tenant's frames are failed operations, and its latency does not
// count towards the percentiles.
func TestPacedLatenciesCountUnansweredAsFailed(t *testing.T) {
	const rate = 1000
	log := &pacedLog{Rate: rate, Written: make([]time.Duration, 4), Probes: []probe{
		{Sent: 0, Recv: 3 * time.Millisecond, Step: 2, OK: true},
		{Sent: 3 * time.Millisecond, Recv: 4 * time.Millisecond, Step: 2, OK: false},
	}}
	m := newMeasurement("frame")
	lat := pacedLatencies(log, 4, m)
	if lat[0] != 3 || lat[1] != 2 || lat[2] != -1 || lat[3] != -1 {
		t.Errorf("latencies from due time = %v, want [3 2 -1 -1]", lat)
	}
	if m.Attempted != 4+2 || m.Failed != 2+1 {
		t.Errorf("attempted %d failed %d, want 6 and 3 (two frames, one query)", m.Attempted, m.Failed)
	}
	if got := answeredOnly(lat); len(got) != 2 {
		t.Errorf("answeredOnly kept %v", got)
	}
}
