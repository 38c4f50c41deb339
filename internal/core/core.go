// Package core implements the Ken data-collection architecture (§3): the
// replicated-model protocol between a sensor-network source and a base
// station sink, and the comparison schemes of the paper's evaluation
// (TinyDB, Approximate Caching, the Average model, and Disjoint-Cliques
// Ken).
//
// A Scheme processes one ground-truth row per time step and returns the
// sink's estimate plus message accounting. Run drives a scheme over a test
// trace, audits the ε-guarantee, and accumulates the statistics the paper
// reports: fraction of data reported (Figs 9, 10, 14) and intra-source /
// source-sink cost decomposition (Figs 12, 13).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ken/internal/obs"
)

// Scheme is a data-collection protocol replayed over a trace.
type Scheme interface {
	// Name identifies the scheme in reports (e.g. "DjC3").
	Name() string
	// Dim returns the number of collected attributes.
	Dim() int
	// Step consumes the ground truth for one time step and returns the
	// sink-side estimate along with the step's message accounting.
	Step(truth []float64) ([]float64, StepStats, error)
}

// StepStats is the communication accounting of a single step.
type StepStats struct {
	// ValuesReported counts attribute values delivered to the sink.
	ValuesReported int
	// Reported lists the global attribute indices transmitted this step,
	// clique by clique in partition order and ascending within a clique —
	// the same list every run. Event-detection consumers use it to see
	// exactly which nodes spoke up.
	Reported []int
	// IntraCost is the intra-source communication cost (collecting clique
	// members at roots, or aggregation/dissemination for the Average model).
	IntraCost float64
	// SinkCost is the source-to-sink communication cost.
	SinkCost float64
	// Bytes is the step's source→sink payload on the wire
	// (obs.WireBytesPerValue per reported value) — the figure the offline
	// auditor reconciles against the trace's per-epoch accounting.
	Bytes int
}

// EpochScoped is implemented by schemes that accept a causal epoch span
// from Run before each step, so their report/suppress/apply events nest
// under the epoch the replay driver opened. Schemes without it still
// trace through their own (unspanned) tracer handle.
type EpochScoped interface {
	BeginEpoch(sp *obs.Span)
}

// Result accumulates a full replay.
type Result struct {
	Scheme string
	Steps  int
	Dim    int

	ValuesReported int
	IntraCost      float64
	SinkCost       float64
	// WireBytes totals the per-step source→sink payload bytes (see
	// StepStats.Bytes).
	WireBytes int

	// MaxAbsError is the largest |estimate − truth| seen at the sink.
	MaxAbsError float64
	// BoundViolations counts (step, attribute) pairs where the sink
	// estimate violated ε. Zero for all deterministic Ken schemes; may be
	// positive under probabilistic reporting or message loss.
	BoundViolations int
	// MeanAbsError is the average |estimate − truth| over all readings.
	MeanAbsError float64

	// PerStepReported records the number of values reported at each step
	// (used by event-detection analyses).
	PerStepReported []int
	// ReportedAttrs records which attribute indices were reported at each
	// step.
	ReportedAttrs [][]int
	// Estimates are the sink's answer vectors, one per step.
	Estimates [][]float64
}

// ReportedAt reports whether attribute i was transmitted at step t.
func (r *Result) ReportedAt(t, i int) bool {
	if t < 0 || t >= len(r.ReportedAttrs) {
		return false
	}
	for _, a := range r.ReportedAttrs[t] {
		if a == i {
			return true
		}
	}
	return false
}

// FractionReported returns reported values / total readings — the y-axis of
// the paper's Figs 9, 10 and 14.
func (r *Result) FractionReported() float64 {
	total := r.Steps * r.Dim
	if total == 0 {
		return 0
	}
	return float64(r.ValuesReported) / float64(total)
}

// TotalCost returns intra + sink cost — the y-axis of Figs 12 and 13.
func (r *Result) TotalCost() float64 { return r.IntraCost + r.SinkCost }

// ErrEmptyTest is returned when the test trace has no rows.
var ErrEmptyTest = errors.New("core: empty test data")

// RunOptions configure a replay. The zero value runs unaudited and
// unobserved.
type RunOptions struct {
	// Eps are the per-attribute error bounds audited at the sink. Nil
	// skips auditing (e.g. for schemes intentionally run with
	// probabilistic guarantees).
	Eps []float64
	// Observer, when non-nil, receives per-epoch start/end trace events
	// and live audit metrics (epochs, values, ε-violations, running max
	// error) while the replay progresses — the handle a live /metrics
	// endpoint watches during a long simulation.
	Observer *obs.Observer
	// Scope labels every trace event of this replay (nested under the
	// tracer's own scope), keeping concurrent replays sharing one trace
	// file attributable — engine cells pass engine.Scope(ctx).
	Scope string
}

// Run replays the scheme over the test rows, audits every sink estimate
// against opts.Eps, and accumulates the statistics the paper reports. ctx
// is checked between steps, so a canceled context stops a long replay
// promptly; nil ctx is treated as context.Background().
func Run(ctx context.Context, s Scheme, test [][]float64, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(test) == 0 {
		return nil, ErrEmptyTest
	}
	n := s.Dim()
	eps := opts.Eps
	if eps != nil && len(eps) != n {
		return nil, fmt.Errorf("core: eps dim %d, scheme dim %d", len(eps), n)
	}
	reg := opts.Observer.Registry()
	tracer := opts.Observer.Tracer().WithScope(opts.Scope)
	mEpochs := reg.Counter("ken_epochs_total")
	mRunValues := reg.Counter("ken_run_values_reported_total")
	mViolations := reg.Counter("ken_epsilon_violations_total")
	gMaxErr := reg.Gauge("ken_max_abs_error")
	res := &Result{
		Scheme:          s.Name(),
		Steps:           len(test),
		Dim:             n,
		PerStepReported: make([]int, 0, len(test)),
		Estimates:       make([][]float64, 0, len(test)),
	}
	scoped, _ := s.(EpochScoped)
	var absErrSum float64
	for t, truth := range test {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(truth) != n {
			return nil, fmt.Errorf("core: test row %d has dim %d, want %d", t, len(truth), n)
		}
		sp := tracer.StartEpoch(obs.Event{Step: int64(t), Clique: -1, Node: -1, Detail: s.Name()})
		if scoped != nil {
			scoped.BeginEpoch(sp)
		}
		est, st, err := s.Step(truth)
		if err != nil {
			return nil, fmt.Errorf("core: step %d: %w", t, err)
		}
		if len(est) != n {
			return nil, fmt.Errorf("core: step %d estimate dim %d, want %d", t, len(est), n)
		}
		res.ValuesReported += st.ValuesReported
		res.IntraCost += st.IntraCost
		res.SinkCost += st.SinkCost
		res.WireBytes += st.Bytes
		res.PerStepReported = append(res.PerStepReported, st.ValuesReported)
		res.ReportedAttrs = append(res.ReportedAttrs, st.Reported)
		// Schemes may reuse the returned estimate slice across steps (Ken
		// does); retaining it requires a copy.
		res.Estimates = append(res.Estimates, append([]float64(nil), est...))
		stepViolations := 0
		for i := range truth {
			d := math.Abs(est[i] - truth[i])
			absErrSum += d
			if d > res.MaxAbsError {
				res.MaxAbsError = d
			}
			if eps != nil && d > eps[i]+1e-9 {
				res.BoundViolations++
				stepViolations++
			}
		}
		mEpochs.Inc()
		mRunValues.Add(int64(st.ValuesReported))
		mViolations.Add(int64(stepViolations))
		gMaxErr.Set(res.MaxAbsError)
		if sp.Active() {
			sp.EndEpoch(obs.Event{Step: int64(t), Clique: -1, Node: -1, N: st.ValuesReported,
				Payload: &obs.Payload{Predicted: est, Observed: truth, Eps: eps, Bytes: st.Bytes}})
		}
	}
	res.MeanAbsError = absErrSum / float64(res.Steps*n)
	if tracer != nil {
		tracer.Emit(obs.Event{Type: obs.EvRunEnd, Step: int64(res.Steps), Clique: -1, Node: -1, Detail: s.Name(),
			Payload: &obs.Payload{Steps: res.Steps, Values: res.ValuesReported, Violations: res.BoundViolations, Bytes: res.WireBytes}})
	}
	return res, nil
}

// ReportCounts returns how many times each attribute was reported over the
// run. The paper observes that Ken "often has the opportunity to select and
// report those few nodes which serve to strongly indicate the readings of
// other nodes" (§5.3) — in multi-node cliques this shows up as a skewed
// per-attribute report distribution.
func (r *Result) ReportCounts() []int {
	counts := make([]int, r.Dim)
	for _, attrs := range r.ReportedAttrs {
		for _, a := range attrs {
			if a >= 0 && a < r.Dim {
				counts[a]++
			}
		}
	}
	return counts
}
