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
	// sink-side estimate along with the step's message accounting. The
	// estimate and StepStats.Reported are views the scheme owns: they stay
	// valid until the next Step, must not be written, and a caller that
	// keeps them past that copies them — so an epoch need allocate nothing.
	Step(truth []float64) ([]float64, StepStats, error)
}

// StepStats is the communication accounting of a single step.
type StepStats struct {
	// ValuesReported counts attribute values delivered to the sink.
	ValuesReported int
	// Reported lists the global attribute indices transmitted this step,
	// clique by clique in partition order and ascending within a clique —
	// the same list every run (a view, see Scheme.Step). Event-detection
	// consumers use it to see exactly which nodes spoke up.
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
	BeginEpoch(sp obs.Span)
}

// Result accumulates a full replay: totals only. A caller that wants a
// step's estimate or report list reads it from Step — through a Scheme
// that wraps the replayed one, say — while it is valid.
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
	ob := opts.Observer.Scoped(opts.Scope)
	reg, tracer := ob.Registry(), ob.Tracer()
	mEpochs := reg.Counter("ken_epochs_total")
	mRunValues := reg.Counter("ken_run_values_reported_total")
	mViolations := reg.Counter("ken_epsilon_violations_total")
	gMaxErr := reg.Gauge("ken_max_abs_error")
	res := &Result{Scheme: s.Name(), Steps: len(test), Dim: n}
	scoped, _ := s.(EpochScoped)
	var absErrSum float64
	for t, truth := range test {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(truth) != n {
			return nil, fmt.Errorf("core: test row %d has dim %d, want %d", t, len(truth), n)
		}
		sp := tracer.StartEpoch(obs.Event{Step: int64(t), Clique: -1, Node: -1, Detail: res.Scheme})
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
		tracer.Emit(obs.Event{Type: obs.EvRunEnd, Step: int64(res.Steps), Clique: -1, Node: -1, Detail: res.Scheme,
			Payload: &obs.Payload{Steps: res.Steps, Values: res.ValuesReported, Violations: res.BoundViolations, Bytes: res.WireBytes}})
	}
	return res, nil
}
