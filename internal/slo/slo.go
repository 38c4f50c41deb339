// Package slo is kensinkd's live SLO monitor: the in-process half of the
// audit machinery, attached to running tenants instead of a finished
// trace. Every tenant session owns one fixed-size Window, and the session's
// applier folds each applied frame's stream.ApplyStats — the one per-frame
// record — into it directly, under the window's own lock: every frame is
// counted exactly once whatever the rate, nothing is queued, dropped or
// looked up by name, and no lock is shared between tenants. The window
// keeps ε-deviation and ε-violation rates measured from the replica's
// pre-apply predictions, a staleness watermark, an ingest→apply latency
// reservoir, queue depth and shed counts, and a replica-divergence sentinel
// fed by heartbeat frames; Window.Status judges it against the thresholds
// below. A window lives and dies with its session, so a reconnecting tenant
// starts from a clean one and a rejected handshake leaves none behind.
//
// # What "ε violation" means live
//
// Offline (kenaudit) the ε bound is checked against ground truth. A live
// sink has no truth except what is reported, so the monitor measures the
// operational form of the guarantee: when a frame carries a value whose
// pre-apply prediction missed its ε (an ε deviation — the normal reason a
// report exists), the answers served while that frame sat in the tenant's
// queue were out of contract. A deviation is therefore escalated to a
// counted violation only when the frame's ingest→apply latency exceeded
// the configured latency budget: the daemon served a knowably-stale
// answer for longer than the budget allows. On a healthy daemon latency
// is microseconds and the violation rate is zero even while deviations
// tick along at the tenant's natural report rate.
//
// # The divergence sentinel
//
// Heartbeat frames carry every attribute, so they are the one moment the
// sink can compare its full model state against ground truth. The
// comparison is weaker than it looks: heartbeat steps skip suppression,
// so a heartbeat deviation of a few ε is ordinary one-step model error
// (the value would have been reported in a normal step), and heartbeats
// re-condition on every value, healing state drift each round — healthy
// lock-step runs show heartbeat deviations up to ~7×ε. What a heartbeat
// CAN expose live is a gross lock-step break — corrupt values, wrong
// units, a replica fed the wrong stream — which lands orders of
// magnitude past ε. The sentinel flags `divergence-suspected` when a
// windowed heartbeat deviation exceeds divergenceDevEps multiples of ε:
// a heuristic for the gross class only; subtle divergence is kenaudit's
// offline silent-divergence invariant.
package slo

import (
	"time"

	"ken/internal/obs"
)

// Health is a tenant's operator-facing health state.
type Health string

const (
	// HealthOK: streaming within every SLO.
	HealthOK Health = "ok"
	// HealthDegraded: streaming, but an SLO is out of bounds (see the
	// status reasons).
	HealthDegraded Health = "degraded"
	// HealthStale: no frame applied for longer than the staleness
	// threshold while the session is nominally live — the spec's
	// heartbeat interval guarantees a frame cadence, so silence this
	// long means the served answers can no longer be trusted to track
	// the source.
	HealthStale Health = "stale"
	// HealthShedding: the tenant was shed; its replica is frozen and
	// queryable but no longer within the ε contract.
	HealthShedding Health = "shedding"
	// HealthTerminal: the session ended (cleanly or on error); see the
	// reasons for which.
	HealthTerminal Health = "terminal"
)

// Health-state reasons, machine-readable (stable strings). The last three
// are also how the daemon spells the session states that end a session
// (sinkd.TenantState): Window.Status is asked with that state and a session
// that has ended is judged by how it ended.
const (
	ReasonViolationRate = "eps-violation-rate"
	ReasonDivergence    = "divergence-suspected"
	ReasonQueuePressure = "queue-pressure"
	ReasonStale         = "stale"
	ReasonShed          = "shed"
	ReasonFailed        = "failed"
	ReasonClosed        = "closed"
)

// The thresholds nothing has ever needed to set differently.
const (
	// window is the rolling SLO window, split into numBuckets slots rotated
	// in place, so memory per tenant is constant.
	window     = 60 * time.Second
	numBuckets = 60
	slotNanos  = int64(window / numBuckets)
	// maxViolationRate is the windowed violations-per-reported-value rate
	// above which a tenant degrades.
	maxViolationRate = 0.01
	// divergenceDevEps is the heartbeat deviation (in multiples of ε) that
	// trips the replica-divergence sentinel. It is calibrated for gross
	// lock-step breaks only — corrupt values, wrong units, a replica
	// conditioned on the wrong stream — which land orders of magnitude past
	// ε. Healthy lock-step runs show heartbeat deviations up to ~7×ε
	// (measured on garden across seeds), and even a replica built from the
	// wrong model stays in that band because heartbeats keep resyncing its
	// state; subtle divergence is indistinguishable live and belongs to the
	// offline auditor (kenaudit).
	divergenceDevEps = 25
	// queuePressure degrades a tenant whose queue depth exceeds this
	// fraction of Config.QueueCap.
	queuePressure = 0.8
)

// Config sets the thresholds a deployment does choose.
type Config struct {
	// StaleAfter marks an active tenant stale when no frame has applied
	// for this long (default 10s).
	StaleAfter time.Duration
	// LatencyBudget is the ingest→apply latency above which an ε
	// deviation counts as a served violation (default 100ms).
	LatencyBudget time.Duration
	// QueueCap is the tenant frame budget (for pressure and reporting;
	// 0 disables the pressure rule).
	QueueCap int
	// Obs receives the daemon-wide slo_* series.
	Obs *obs.Observer

	// now is the test clock (default time.Now).
	now func() time.Time
}

// Monitor is what the windows of one daemon share: the thresholds and the
// daemon-wide slo_* series.
type Monitor struct {
	cfg Config

	mDeviations obs.Counter   // slo_eps_deviations_total
	mViolations obs.Counter   // slo_eps_violations_total
	hLatency    obs.Histogram // slo_apply_latency_seconds
}

// NewMonitor fills in the defaults and registers the shared series.
func NewMonitor(cfg Config) *Monitor {
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 10 * time.Second
	}
	if cfg.LatencyBudget <= 0 {
		cfg.LatencyBudget = 100 * time.Millisecond
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	reg := cfg.Obs.Registry()
	reg.Describe("slo_eps_deviations_total", "reported values whose pre-apply prediction missed epsilon")
	reg.Describe("slo_eps_violations_total", "epsilon deviations served beyond the latency budget")
	reg.Describe("slo_apply_latency_seconds", "ingest-to-apply latency of tenant frames (per tenant, the latest 256 of each second)")
	return &Monitor{
		cfg:         cfg,
		mDeviations: reg.Counter("slo_eps_deviations_total"),
		mViolations: reg.Counter("slo_eps_violations_total"),
		hLatency:    reg.Histogram("slo_apply_latency_seconds"),
	}
}

// TenantStatus is one tenant's evaluated health.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	Health Health `json:"health"`
	// Unhealthy is the daemon-aggregation verdict: true for degraded,
	// stale, shedding and failed-terminal tenants; false for ok and for
	// a clean close.
	Unhealthy bool `json:"unhealthy"`
	// Reasons are machine-readable (the Reason* constants).
	Reasons []string    `json:"reasons,omitempty"`
	Window  WindowStats `json:"window"`
}

// Status evaluates the window for the tenant it belongs to. state is the
// session's lifecycle state as the daemon spells it: "shed", "failed" and
// "closed" decide the verdict on their own (and are its reason); any other
// state is a live session, judged by its window.
func (w *Window) Status(tenant, state string) TenantStatus {
	cfg := &w.m.cfg
	st := TenantStatus{Tenant: tenant, Health: HealthOK, Window: w.stats(cfg.now().UnixNano())}
	switch state {
	case ReasonShed, ReasonFailed, ReasonClosed:
		st.Health = HealthTerminal
		if state == ReasonShed {
			st.Health = HealthShedding
		}
		st.Unhealthy = state != ReasonClosed
		st.Reasons = []string{state}
		return st
	}
	if st.Window.StalenessSeconds > cfg.StaleAfter.Seconds() {
		st.Health, st.Unhealthy = HealthStale, true
		st.Reasons = []string{ReasonStale}
		return st
	}
	if st.Window.ViolationRate > maxViolationRate {
		st.Reasons = append(st.Reasons, ReasonViolationRate)
	}
	if st.Window.DivergenceSuspected {
		st.Reasons = append(st.Reasons, ReasonDivergence)
	}
	if cfg.QueueCap > 0 && float64(st.Window.QueueDepth) > queuePressure*float64(cfg.QueueCap) {
		st.Reasons = append(st.Reasons, ReasonQueuePressure)
	}
	if len(st.Reasons) > 0 {
		st.Health, st.Unhealthy = HealthDegraded, true
	}
	return st
}
