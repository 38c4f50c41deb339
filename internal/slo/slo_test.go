package slo

import (
	"testing"
	"time"

	"ken/internal/obs"
	"ken/internal/stream"
)

// fixedClock is the injectable test clock.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time          { return c.t }
func (c *fixedClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testMonitor builds a monitor on a deterministic clock.
func testMonitor(t *testing.T, cfg Config) (*Monitor, *fixedClock) {
	t.Helper()
	clk := &fixedClock{t: time.Unix(1_700_000_000, 0)}
	cfg.now = clk.now
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{Reg: obs.NewRegistry()}
	}
	return NewMonitor(cfg), clk
}

// apply folds one applied frame with the given queue latency and queue
// depth 1, stamped at the clock's current time.
func apply(w *Window, clk *fixedClock, step uint64, values, deviations int, latency time.Duration, heartbeat bool, maxDev float64) {
	applied := clk.t.UnixNano()
	w.Apply(&stream.ApplyStats{
		Step: step, Values: values, Heartbeat: heartbeat, Deviations: deviations, MaxDevEps: maxDev,
	}, applied-int64(latency), applied, 1)
}

func TestMonitorWindowAccounting(t *testing.T) {
	m, clk := testMonitor(t, Config{LatencyBudget: 100 * time.Millisecond, QueueCap: 8})
	win := m.NewWindow()

	// Three frames: a fast deviation (no violation), a slow deviation
	// (violation), and a clean heartbeat.
	apply(win, clk, 1, 4, 1, time.Millisecond, false, 1.2)
	clk.advance(time.Second)
	apply(win, clk, 2, 4, 2, 250*time.Millisecond, false, 2.0)
	clk.advance(time.Second)
	apply(win, clk, 3, 8, 0, time.Millisecond, true, 0.4)

	st := win.Status("t0", "streaming")
	if st.Tenant != "t0" {
		t.Errorf("status names tenant %q, want t0", st.Tenant)
	}
	w := st.Window
	if w.Frames != 3 || w.Values != 16 || w.Heartbeats != 1 {
		t.Errorf("frames=%d values=%d heartbeats=%d, want 3/16/1", w.Frames, w.Values, w.Heartbeats)
	}
	if w.Deviations != 3 || w.Violations != 2 {
		t.Errorf("deviations=%d violations=%d, want 3 and 2 (only the slow frame's)", w.Deviations, w.Violations)
	}
	if w.ViolationRate != 2.0/16.0 {
		t.Errorf("violation rate=%v, want %v", w.ViolationRate, 2.0/16.0)
	}
	if w.MaxDevEps != 2.0 || w.HeartbeatMaxDevEps != 0.4 {
		t.Errorf("maxDev=%v hbMaxDev=%v, want 2.0 and 0.4", w.MaxDevEps, w.HeartbeatMaxDevEps)
	}
	if w.DivergenceSuspected {
		t.Error("divergence suspected at 0.4 ε on heartbeats")
	}
	if w.LastStep != 3 || w.TotalFrames != 3 || w.QueueDepth != 1 || w.QueueCap != 8 {
		t.Errorf("lastStep=%d totalFrames=%d queue=%d/%d, want 3, 3, 1/8", w.LastStep, w.TotalFrames, w.QueueDepth, w.QueueCap)
	}
	if w.LatencyP95 < 0.2 || w.LatencyP50 > 0.01 {
		t.Errorf("latency p50=%v p95=%v, want p50 ~1ms and p95 ~250ms", w.LatencyP50, w.LatencyP95)
	}
}

func TestMonitorWindowRotation(t *testing.T) {
	m, clk := testMonitor(t, Config{})
	win := m.NewWindow()
	apply(win, clk, 1, 2, 0, time.Millisecond, false, 0)
	clk.advance(90 * time.Second)
	apply(win, clk, 2, 2, 0, time.Millisecond, false, 0)

	st := win.Status("t0", "streaming")
	if st.Window.Frames != 1 {
		t.Errorf("window frames=%d, want 1 — the 90s-old frame must have rotated out", st.Window.Frames)
	}
	if st.Window.TotalFrames != 2 {
		t.Errorf("total frames=%d, want 2 — session tally must survive rotation", st.Window.TotalFrames)
	}
}

func TestMonitorHealthTransitions(t *testing.T) {
	m, clk := testMonitor(t, Config{
		StaleAfter:    10 * time.Second,
		LatencyBudget: 100 * time.Millisecond,
		QueueCap:      10,
	})
	live := func(w *Window) TenantStatus { return w.Status("t0", "streaming") }

	// Fresh session: admitted moments ago, nothing applied — still ok,
	// also while its replica is being built.
	win := m.NewWindow()
	if st := win.Status("t0", "building"); st.Health != HealthOK || st.Unhealthy {
		t.Errorf("fresh tenant: %+v, want ok", st)
	}

	// Healthy streaming.
	apply(win, clk, 1, 100, 0, time.Millisecond, false, 0)
	if st := live(win); st.Health != HealthOK {
		t.Errorf("healthy tenant: health=%s, want ok", st.Health)
	}

	// Violation rate above 1% degrades.
	apply(win, clk, 2, 10, 5, time.Second, false, 4.0)
	st := live(win)
	if st.Health != HealthDegraded || !st.Unhealthy {
		t.Errorf("violating tenant: %+v, want degraded", st)
	}
	if !hasReason(st, ReasonViolationRate) {
		t.Errorf("reasons=%v, want %s", st.Reasons, ReasonViolationRate)
	}

	// Heartbeat deviation past the sentinel threshold — a gross
	// lock-step break, orders of magnitude beyond healthy drift.
	apply(win, clk, 3, 10, 0, time.Millisecond, true, 40)
	if st = live(win); !hasReason(st, ReasonDivergence) {
		t.Errorf("reasons=%v, want %s", st.Reasons, ReasonDivergence)
	}

	// Queue near the budget.
	applied := clk.t.UnixNano()
	win.Apply(&stream.ApplyStats{Step: 4, Values: 1}, applied, applied, 9)
	if st = live(win); !hasReason(st, ReasonQueuePressure) {
		t.Errorf("reasons=%v, want %s", st.Reasons, ReasonQueuePressure)
	}

	// Silence past StaleAfter goes stale (stale outranks degraded).
	clk.advance(11 * time.Second)
	if st = live(win); st.Health != HealthStale || !hasReason(st, ReasonStale) {
		t.Errorf("silent tenant: %+v, want stale", st)
	}

	// A session that has ended is judged by how, whatever its window says.
	if st = win.Status("t0", "shed"); st.Health != HealthShedding || !st.Unhealthy || !hasReason(st, ReasonShed) {
		t.Errorf("shed tenant: %+v, want shedding/unhealthy", st)
	}
	if st = win.Status("t0", "failed"); st.Health != HealthTerminal || !st.Unhealthy || !hasReason(st, ReasonFailed) {
		t.Errorf("failed tenant: %+v, want terminal/unhealthy", st)
	}
	if st = win.Status("t0", "closed"); st.Health != HealthTerminal || st.Unhealthy || !hasReason(st, ReasonClosed) {
		t.Errorf("closed tenant: %+v, want terminal and healthy (clean close is benign)", st)
	}
}

func hasReason(st TenantStatus, want string) bool {
	for _, r := range st.Reasons {
		if r == want {
			return true
		}
	}
	return false
}

func TestMonitorShedEventsCount(t *testing.T) {
	m, clk := testMonitor(t, Config{})
	win := m.NewWindow()
	win.Shed(clk.t.UnixNano())
	win.Shed(clk.t.UnixNano())
	st := win.Status("t0", "shed")
	if st.Window.Sheds != 2 || st.Window.TotalSheds != 2 {
		t.Errorf("sheds=%d total=%d, want 2/2", st.Window.Sheds, st.Window.TotalSheds)
	}
}

// TestMonitorStatusAllSortedAndUnknown: the monitor keeps no table of
// tenants to list or look up — who exists is the daemon's business
// (sinkd.TestHealthEndpoint, TestSLOEndpoint). What is left of it here is
// that windows of one monitor share nothing but the thresholds: each
// status carries its own tenant's name and numbers, and a window nothing
// was applied to reports zeros, not a neighbour's counts.
func TestMonitorStatusAllSortedAndUnknown(t *testing.T) {
	m, clk := testMonitor(t, Config{})
	wins := map[string]*Window{"t2": m.NewWindow(), "t0": m.NewWindow(), "t1": m.NewWindow()}
	for i, name := range []string{"t0", "t1", "t2"} {
		for step := 0; step <= i; step++ {
			apply(wins[name], clk, uint64(step), 1, 0, time.Millisecond, false, 0)
		}
	}
	for i, name := range []string{"t0", "t1", "t2"} {
		st := wins[name].Status(name, "streaming")
		if st.Tenant != name || st.Window.TotalFrames != int64(i+1) {
			t.Errorf("status of %s: tenant %q with %d frames, want %d", name, st.Tenant, st.Window.TotalFrames, i+1)
		}
	}
	if st := m.NewWindow().Status("nope", "streaming"); st.Window.TotalFrames != 0 || st.Window.Frames != 0 {
		t.Errorf("untouched window reports %+v, want zeros", st.Window)
	}
}

// TestMonitorMetricsMirror: the shared slo_* series are advanced a slot at
// a time and at session end, never per frame — and then by exactly what
// the windows counted.
func TestMonitorMetricsMirror(t *testing.T) {
	reg := obs.NewRegistry()
	m, clk := testMonitor(t, Config{Obs: &obs.Observer{Reg: reg}, LatencyBudget: 100 * time.Millisecond})
	win := m.NewWindow()
	apply(win, clk, 1, 4, 2, time.Second, false, 2.0)
	apply(win, clk, 2, 4, 1, time.Millisecond, false, 1.1)

	if s := reg.Snapshot(); s.Counters["slo_eps_deviations_total"] != 0 || s.Histograms["slo_apply_latency_seconds"].Count != 0 {
		t.Errorf("shared series moved inside a slot: %+v", s.Counters)
	}
	// The next slot's first frame carries the finished slot's counts over.
	clk.advance(time.Second)
	apply(win, clk, 3, 4, 1, time.Second, false, 1.5)
	s := reg.Snapshot()
	if s.Counters["slo_eps_deviations_total"] != 3 || s.Counters["slo_eps_violations_total"] != 2 {
		t.Errorf("after rotation: deviations=%d violations=%d, want 3/2",
			s.Counters["slo_eps_deviations_total"], s.Counters["slo_eps_violations_total"])
	}
	if s.Histograms["slo_apply_latency_seconds"].Count != 2 {
		t.Errorf("latency histogram count=%d, want 2", s.Histograms["slo_apply_latency_seconds"].Count)
	}
	// Session end flushes the rest, once.
	win.Flush()
	win.Flush()
	s = reg.Snapshot()
	if s.Counters["slo_eps_deviations_total"] != 4 || s.Counters["slo_eps_violations_total"] != 3 {
		t.Errorf("after flush: deviations=%d violations=%d, want 4/3",
			s.Counters["slo_eps_deviations_total"], s.Counters["slo_eps_violations_total"])
	}
	if s.Histograms["slo_apply_latency_seconds"].Count != 3 {
		t.Errorf("latency histogram count=%d, want 3", s.Histograms["slo_apply_latency_seconds"].Count)
	}
	if s.Help["slo_eps_deviations_total"] == "" {
		t.Error("slo_eps_deviations_total has no help string")
	}

	// Above latCap frames a slot the histogram gets the latest latCap.
	for i := 0; i < latCap+10; i++ {
		apply(win, clk, uint64(4+i), 1, 0, time.Millisecond, false, 0)
	}
	win.Flush()
	if got := reg.Snapshot().Histograms["slo_apply_latency_seconds"].Count; got != 3+latCap {
		t.Errorf("latency histogram count=%d, want %d", got, 3+latCap)
	}
}
