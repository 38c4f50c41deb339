package protocol

import (
	"fmt"
	"math"

	"ken/internal/model"
	"ken/internal/obs"
)

// Channel is everything that differs between Ken's deployments (§6): not the
// epoch, only what reaches the clique roots and what reaches the sink. The
// loop asks it three questions per epoch and never which channel it is:
// Perfect is §3.2's, core.LossyKen flips seeded coins, simnet.DistributedKen
// sends packets through a lossy radio, stream.Source quantises onto a wire
// frame for a sink in another process.
type Channel interface {
	// Heartbeat opens an epoch whose readings have been accepted and reports
	// whether it is a heartbeat: every reading a root holds is reported,
	// whatever the prediction, to re-synchronise the replicas.
	Heartbeat() bool
	// Collect returns the local attributes of clique ci whose readings
	// reached its root, strictly increasing — Kernel.Choose's candidate set:
	// nil means all of them, empty and non-nil means none (a dead root).
	Collect(ci int, truth []float64) []int
	// Carry takes clique ci's report (empty ones too) to the sink and returns
	// what arrived, a sorted pair that may alias the report. It may rewrite
	// vals in place (quantisation): the source commits what Carry leaves
	// there. It runs after the clique's sink has predicted, unless that sink
	// is its source's twin; on a sink-only loop (SinkEpoch) the report is nil
	// and what arrived came from a source in another process. A channel that
	// traces its own traffic does so under the report's span; lost lists the
	// global attributes of values it dropped without tracing them, for the
	// loop to trace.
	Carry(ci int, idx []int, vals []float64, under obs.Span) (dIdx []int, dVals []float64, lost []int)
}

// Perfect is the channel of §3.2: every root hears every member, every
// report arrives as sent, and no epoch is a heartbeat.
type Perfect struct{}

func (Perfect) Heartbeat() bool              { return false }
func (Perfect) Collect(int, []float64) []int { return nil }
func (Perfect) Carry(_ int, idx []int, vals []float64, _ obs.Span) ([]int, []float64, []int) {
	return idx, vals, nil
}

// Beat is the heartbeat schedule (§6) the lossy channels embed: every
// Every-th epoch, counted from the first, is a heartbeat; 0 means never.
type Beat struct {
	Every      int
	Heartbeats int // heartbeat epochs so far
	epochs     int
}

// Heartbeat implements Channel.
func (b *Beat) Heartbeat() bool {
	b.epochs++
	if b.Every <= 0 || b.epochs%b.Every != 0 {
		return false
	}
	b.Heartbeats++
	return true
}

// Policy picks a clique's report on an ordinary epoch, under Kernel.Choose's
// contract — which is the default policy, (*Kernel).Choose.
type Policy func(src *Kernel, truth []float64, cand []int) (idx []int, vals []float64, err error)

// Loop is the Ken epoch (§3.2), written once: per clique, hear what the
// channel collected at the root, advance the replicas, let the source choose
// its report (every reading it holds on a heartbeat), hand the report to the
// channel, commit the source to what it sent and the sink to what arrived —
// and trace each of those moves. Drivers fill the exported configuration,
// call Mirror when the sink is in-process, then Check and Epoch once per
// sampling period — SourceEpoch or SinkEpoch when the other half runs in
// another process — and read the outcome; they make no kernel move of their
// own.
//
// Source and sink run the same deterministic model on the same reports, so
// while every report arrives as sent their states stay equal bit for bit.
// The loop keeps, per clique, a twin bit that says so: Mirror sets it, an
// epoch whose delivery is the report keeps it, an epoch in which both
// replicas commit a report of every member sets it again (both are then the
// same point mass), and anything else clears it. On a twin epoch the sink
// neither predicts nor commits: it copies the source's post-commit state
// (model.StateCopier), the same bits its own moves would have made.
type Loop struct {
	// Src and Sink are each clique's replicas, in partition order. Sink is
	// set by Mirror, or directly on a sink-only loop (SinkEpoch), and empty
	// when the sink lives in another process (SourceEpoch); Src is empty on
	// a sink-only loop.
	Src, Sink []*Kernel
	// Roots is each clique's root node, for the trace.
	Roots []int
	// N is the number of attributes the cliques cover.
	N       int
	Channel Channel
	Choose  Policy
	// Tracer, when non-nil, receives the report/suppress/apply/drop/resync
	// events; untraced epochs allocate nothing.
	Tracer *obs.Tracer

	// Sent is the size of each clique's report in the last epoch, and
	// Reported the global attributes reported, clique by clique and ascending
	// within one. Both are reused by the next epoch.
	Sent, Reported []int

	step int64
	sp   obs.Span
	pick Policy // this epoch's: Choose, or (*Kernel).Full on a heartbeat
	// twin[ci]: clique ci's sink is bitwise its source (see Loop).
	twin []bool
	// d is the current clique's report after the channel: what arrived, what
	// the channel dropped untraced, the report's span, and what the source
	// committed.
	d struct {
		idx      []int
		vals     []float64
		lost     []int
		under    obs.Span
		sent     []int
		sentVals []float64
	}
}

// Mirror gives every source replica an independent sink replica in the same
// state — the sink side of a deployment fitted once — and marks each pair
// whose model family can copy state a twin. A sink the loop did not mirror
// is never taken for one.
func (l *Loop) Mirror() {
	l.Sink = make([]*Kernel, len(l.Src))
	l.twin = make([]bool, len(l.Src))
	for ci, k := range l.Src {
		l.Sink[ci] = k.Clone()
		l.twin[ci] = l.Sink[ci].sc != nil
	}
}

// Check accepts or rejects an epoch's readings before anything moves: the
// right count, and every one finite (CheckReadings).
func (l *Loop) Check(truth []float64) error {
	if len(truth) != l.N {
		return fmt.Errorf("%w: %d readings, want %d", model.ErrDim, len(truth), l.N)
	}
	return CheckReadings(truth)
}

// Epoch runs one sampling period on both replicas of every clique, source
// and delivery interleaved clique by clique. truth must have passed Check.
// step labels the epoch's events and sp, when active, is the span they nest
// under. An error leaves the cliques before the failing one advanced.
//
// A twin sink makes no move of its own unless the delivery differs from the
// report: it predicts then (or on an error, as every sink predicts before
// its source's half), and otherwise copies the source once it has
// committed. The report is traced against the source's prediction, which is
// bitwise the sink's, so a traced run takes the same path.
func (l *Loop) Epoch(step int64, sp obs.Span, truth []float64) error {
	l.begin(step, sp)
	for ci, sink := range l.Sink {
		src := l.Src[ci]
		twin := ci < len(l.twin) && l.twin[ci]
		view := src
		if twin {
			l.twin[ci] = false // until this epoch ends well
		} else {
			sink.Predict()
			view = sink
		}
		if err := l.source(ci, truth, view); err != nil {
			if twin {
				sink.Predict()
			}
			return err
		}
		asSent := l.asSent()
		if twin && asSent {
			if err := sink.sc.CopyStateFrom(src.m); err != nil {
				return err
			}
		} else {
			if twin {
				sink.Predict()
			}
			if err := sink.Commit(l.d.idx, l.d.vals); err != nil {
				return err
			}
		}
		if asSent && (twin || len(l.d.sent) == src.Dim()) && ci < len(l.twin) {
			l.twin[ci] = sink.sc != nil
		}
		if l.Tracer != nil {
			l.traceArrival(ci)
		}
	}
	return nil
}

// asSent reports whether the current clique's delivery is the report the
// source committed: the same indices and the same value bits.
func (l *Loop) asSent() bool {
	d := &l.d
	if len(d.idx) != len(d.sent) {
		return false
	}
	for j, i := range d.sent {
		if d.idx[j] != i || math.Float64bits(d.vals[j]) != math.Float64bits(d.sentVals[j]) {
			return false
		}
	}
	return true
}

// SourceEpoch is Epoch for a loop without sink replicas: the source half
// alone, the channel's Carry being all the delivery there is.
func (l *Loop) SourceEpoch(step int64, sp obs.Span, truth []float64) error {
	l.begin(step, sp)
	for ci, src := range l.Src {
		if err := l.source(ci, truth, src); err != nil {
			return err
		}
	}
	return nil
}

// SinkEpoch is Epoch for a loop without source replicas: the sink half
// alone (§3.2 sink step 2), for a source in another process. Per clique the
// sink predicts, the channel's Carry hands it what arrived and it commits
// that. There are no twins. An error leaves the cliques before the failing
// one advanced, and the failing one predicted.
func (l *Loop) SinkEpoch(step int64, sp obs.Span) error {
	l.begin(step, sp)
	for ci, sink := range l.Sink {
		sink.Predict()
		idx, vals, lost := l.Channel.Carry(ci, nil, nil, obs.Span{})
		if err := sink.Commit(idx, vals); err != nil {
			return err
		}
		if l.Tracer != nil {
			l.d.idx, l.d.vals, l.d.lost = idx, vals, lost
			l.traceArrival(ci)
		}
	}
	return nil
}

// Estimates scatters every sink replica's mean into the answer vector.
func (l *Loop) Estimates(est []float64) {
	for _, sink := range l.Sink {
		sink.Scatter(est)
	}
}

// begin opens an epoch: resets the outcome and asks the channel whether it
// is a heartbeat.
func (l *Loop) begin(step int64, sp obs.Span) {
	l.step, l.sp = step, sp
	l.Sent, l.Reported = l.Sent[:0], l.Reported[:0]
	l.pick = l.Choose
	if l.Channel.Heartbeat() {
		l.pick = (*Kernel).Full
		if l.Tracer != nil {
			l.emit(sp, obs.Event{Type: obs.EvResync, Clique: -1, Node: -1})
		}
	}
}

// source is the source half for clique ci (§3.2 source steps 1–4), up to and
// including the channel. view is the replica whose prediction the report is
// traced against — what the sink would have answered without it: the sink's
// own, already advanced, or the source's when the sink is out of reach.
func (l *Loop) source(ci int, truth []float64, view *Kernel) error {
	src := l.Src[ci]
	cand := l.Channel.Collect(ci, truth)
	src.Predict()
	var pred []float64
	if l.Tracer != nil {
		pred = append([]float64(nil), view.Mean()...)
	}
	idx, vals, err := l.pick(src, truth, cand)
	if err != nil {
		return err
	}
	l.Sent = append(l.Sent, len(idx))
	members := src.Members()
	for _, i := range idx {
		l.Reported = append(l.Reported, members[i])
	}
	l.d.under = obs.Span{}
	if l.Tracer != nil {
		l.d.under = l.traceReport(ci, idx, vals, pred)
	}
	l.d.idx, l.d.vals, l.d.lost = l.Channel.Carry(ci, idx, vals, l.d.under)
	l.d.sent, l.d.sentVals = idx, vals
	// The source believes everything it sent; the sink only what arrived.
	return src.Commit(idx, vals)
}

// traceReport emits clique ci's report event, as a child span of the epoch,
// and the suppress event beside it, and returns the report's span: the sink
// apply, the channel's own traffic and any loss trace under it, giving the
// auditor the report → apply causal chain. The zero Span when nothing was
// reported.
func (l *Loop) traceReport(ci int, idx []int, vals, pred []float64) obs.Span {
	members, eps := l.Src[ci].Members(), l.Src[ci].Eps()
	var rs obs.Span
	if len(idx) > 0 {
		epsR := make([]float64, len(idx))
		preds := make([]float64, len(idx))
		for j, i := range idx {
			epsR[j], preds[j] = eps[i], pred[i]
		}
		rs = l.sp.Child()
		l.emit(rs, obs.Event{
			Type: obs.EvReport, Clique: ci, Node: l.Roots[ci],
			Attrs: globalAttrs(members, idx), Values: vals,
			Payload: &obs.Payload{
				Predicted: preds, Observed: vals, Eps: epsR,
				Bytes: obs.WireBytesPerValue * len(idx),
			},
		})
	}
	if len(idx) < len(members) {
		supp := make([]int, 0, len(members)-len(idx))
		next := 0
		for i, g := range members {
			if next < len(idx) && idx[next] == i {
				next++
				continue
			}
			supp = append(supp, g)
		}
		l.emit(l.sp, obs.Event{Type: obs.EvSuppress, Clique: ci, Node: l.Roots[ci], Attrs: supp})
	}
	return rs
}

// traceArrival emits, under the report's span, the sink's apply of what
// arrived and the drop of what the channel lost without saying so itself.
// On a sink-only loop there is no report span: the report was traced in
// another process.
func (l *Loop) traceArrival(ci int) {
	d := &l.d
	if len(d.idx) > 0 {
		l.emit(d.under.Child(), obs.Event{
			Type: obs.EvApply, Clique: ci, Node: -1,
			Attrs: globalAttrs(l.Sink[ci].Members(), d.idx), Values: d.vals, N: len(d.idx),
		})
	}
	if len(d.lost) > 0 {
		l.emit(d.under.Child(), obs.Event{
			Type: obs.EvDrop, Clique: ci, Node: l.Roots[ci],
			Attrs: d.lost, Detail: "loss",
		})
	}
}

// globalAttrs maps a report's clique-local indices to global attributes.
func globalAttrs(members, idx []int) []int {
	out := make([]int, len(idx))
	for j, i := range idx {
		out[j] = members[i]
	}
	return out
}

// emit stamps the epoch's step on ev and sends it through sp when it is an
// active span — a replay driver's epoch or a report under it — and through
// the bare tracer otherwise. Either marshals ev before returning, so events
// borrow the kernels' scratch.
func (l *Loop) emit(sp obs.Span, ev obs.Event) {
	ev.Step = l.step
	if sp.Active() {
		sp.Emit(ev)
	} else {
		l.Tracer.Emit(ev)
	}
}
