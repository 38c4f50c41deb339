package slo

import (
	"sort"
	"sync"

	"ken/internal/stream"
)

// latCap bounds the per-tenant latency reservoir (most recent samples).
const latCap = 256

// bucket accumulates one window slot.
type bucket struct {
	slot       int64 // bucket ordinal since the epoch; 0 = unused
	frames     int64
	values     int64
	heartbeats int64
	deviations int64
	violations int64
	sheds      int64
	maxDev     float64 // max |pred−value|/ε in the slot
	hbMaxDev   float64 // same, heartbeat frames only
}

// Window is one tenant session's SLO state: fixed size, written by the
// session's applier (and once by its reader, on a shed), read by the HTTP
// handlers, all under its own lock.
type Window struct {
	m *Monitor

	mu          sync.Mutex
	lastApplied int64 // UnixNano of the newest apply; of the window's creation until then
	lastStep    uint64
	queueDepth  int

	totalFrames     int64
	totalDeviations int64
	totalViolations int64
	totalSheds      int64

	buckets [numBuckets]bucket
	lat     [latCap]float64 // seconds; ring of the latest latencies
	latN    int64           // total latency samples ever

	// flushed is how much of totalDeviations, totalViolations and latN the
	// monitor's shared series have already been advanced by.
	flushed struct{ deviations, violations, lat int64 }
}

// NewWindow returns a fresh session's window; its staleness clock starts now.
func (m *Monitor) NewWindow() *Window {
	return &Window{m: m, lastApplied: m.cfg.now().UnixNano()}
}

// Apply folds one applied frame into the window: what the frame did to the
// replica (st), when the reader queued it and when the applier finished it
// (UnixNano; their difference is the ingest→apply latency), and the tenant's
// queue occupancy after it. Every write is local to the window — the
// monitor's shared series move once a slot, in flush — and none allocates.
func (w *Window) Apply(st *stream.ApplyStats, enqueued, applied int64, queueDepth int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.bucketFor(applied)
	w.lastApplied = applied
	w.lastStep = st.Step
	w.queueDepth = queueDepth
	w.totalFrames++
	b.frames++
	b.values += int64(st.Values)
	if st.Heartbeat {
		b.heartbeats++
		b.hbMaxDev = max(b.hbMaxDev, st.MaxDevEps)
	}
	b.maxDev = max(b.maxDev, st.MaxDevEps)
	lat := max(applied-enqueued, 0)
	w.lat[w.latN%latCap] = float64(lat) / 1e9
	w.latN++
	if n := int64(st.Deviations); n > 0 {
		b.deviations += n
		w.totalDeviations += n
		if lat > int64(w.m.cfg.LatencyBudget) {
			b.violations += n
			w.totalViolations += n
		}
	}
}

// Shed records that the session was shed at the given UnixNano.
func (w *Window) Shed(at int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bucketFor(at).sheds++
	w.totalSheds++
}

// Flush advances the monitor's shared series by what the window has counted
// since they last moved. The applier calls it when the session ends; until
// then the window flushes itself whenever a new slot opens.
func (w *Window) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flush()
}

// flush is Flush with mu held. The latency histogram gets the reservoir's
// unflushed samples: every latency below latCap frames a slot, the latest
// latCap above.
func (w *Window) flush() {
	w.m.mDeviations.Add(w.totalDeviations - w.flushed.deviations)
	w.m.mViolations.Add(w.totalViolations - w.flushed.violations)
	for i := max(w.flushed.lat, w.latN-latCap); i < w.latN; i++ {
		w.m.hLatency.Observe(w.lat[i%latCap])
	}
	w.flushed.deviations, w.flushed.violations, w.flushed.lat = w.totalDeviations, w.totalViolations, w.latN
}

// bucketFor rotates the ring to the slot holding nanos; a slot's first
// event is also when the shared series catch up. Caller holds mu.
func (w *Window) bucketFor(nanos int64) *bucket {
	slot := nanos / slotNanos
	b := &w.buckets[slot%numBuckets]
	if b.slot != slot {
		w.flush()
		*b = bucket{slot: slot}
	}
	return b
}

// WindowStats is the windowed view of one tenant's SLOs — the payload of
// GET /v1/slo and of each /v1/health tenant entry.
type WindowStats struct {
	// Seconds is the window width the numbers below cover.
	Seconds float64 `json:"seconds"`
	// Frames/Values/Heartbeats applied inside the window.
	Frames     int64 `json:"frames"`
	Values     int64 `json:"values"`
	Heartbeats int64 `json:"heartbeats"`
	// Deviations counts reported values whose pre-apply prediction
	// missed ε; DeviationRate is per reported value.
	Deviations    int64   `json:"deviations"`
	DeviationRate float64 `json:"deviation_rate"`
	// Violations counts deviations served beyond the latency budget;
	// ViolationRate is per reported value — the live ε-violation rate.
	Violations    int64   `json:"violations"`
	ViolationRate float64 `json:"violation_rate"`
	// MaxDevEps is the worst |prediction − value| / ε in the window.
	MaxDevEps float64 `json:"max_dev_eps"`
	// HeartbeatMaxDevEps is the same over heartbeat frames only — the
	// divergence sentinel's input.
	HeartbeatMaxDevEps  float64 `json:"heartbeat_max_dev_eps"`
	DivergenceSuspected bool    `json:"divergence_suspected"`
	// StalenessSeconds is the time since the last applied frame (since
	// the session was admitted, when nothing has applied yet).
	StalenessSeconds float64 `json:"staleness_seconds"`
	// Ingest→apply latency quantiles over the recent-sample reservoir.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP95 float64 `json:"latency_p95_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// QueueDepth/QueueCap: last observed queue occupancy vs the budget.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Sheds inside the window (and the session total).
	Sheds      int64 `json:"sheds"`
	TotalSheds int64 `json:"total_sheds"`
	// LastStep is the step of the newest applied frame; TotalFrames and
	// TotalViolations are session tallies.
	LastStep        uint64 `json:"last_step"`
	TotalFrames     int64  `json:"total_frames"`
	TotalViolations int64  `json:"total_violations"`
}

// stats sums the live buckets as of now (UnixNano).
func (w *Window) stats(now int64) WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	nowSlot := now / slotNanos
	minSlot := nowSlot - numBuckets + 1
	s := WindowStats{
		Seconds:         window.Seconds(),
		QueueDepth:      w.queueDepth,
		QueueCap:        w.m.cfg.QueueCap,
		TotalSheds:      w.totalSheds,
		LastStep:        w.lastStep,
		TotalFrames:     w.totalFrames,
		TotalViolations: w.totalViolations,
	}
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.slot == 0 || b.slot < minSlot || b.slot > nowSlot {
			continue
		}
		s.Frames += b.frames
		s.Values += b.values
		s.Heartbeats += b.heartbeats
		s.Deviations += b.deviations
		s.Violations += b.violations
		s.Sheds += b.sheds
		s.MaxDevEps = max(s.MaxDevEps, b.maxDev)
		s.HeartbeatMaxDevEps = max(s.HeartbeatMaxDevEps, b.hbMaxDev)
	}
	if s.Values > 0 {
		s.DeviationRate = float64(s.Deviations) / float64(s.Values)
		s.ViolationRate = float64(s.Violations) / float64(s.Values)
	}
	s.DivergenceSuspected = s.HeartbeatMaxDevEps >= divergenceDevEps
	s.StalenessSeconds = max(float64(now-w.lastApplied)/1e9, 0)
	s.LatencyP50, s.LatencyP95, s.LatencyP99 = w.latQuantiles()
	return s
}

// latQuantiles sorts a copy of the latency reservoir and reads the
// 50th/95th/99th percentiles (zeros with no samples). Caller holds mu.
func (w *Window) latQuantiles() (p50, p95, p99 float64) {
	n := int(min(w.latN, latCap))
	if n == 0 {
		return 0, 0, 0
	}
	var tmp [latCap]float64
	s := tmp[:n]
	copy(s, w.lat[:n])
	sort.Float64s(s)
	pick := func(q float64) float64 {
		return s[min(int(q*float64(n-1)+0.5), n-1)]
	}
	return pick(0.50), pick(0.95), pick(0.99)
}
