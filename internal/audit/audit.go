// Package audit replays a JSONL protocol trace offline and verifies the
// invariants the Ken pipeline claims at runtime — the audit trail that
// makes the paper's headline guarantee ("every sink-reported value is
// within ε of ground truth regardless of model quality", §1/§3)
// checkable after the fact instead of taken on faith.
//
// The auditor groups events by scope (concurrent engine cells write
// disjoint scopes into one file), splits each scope at run_end boundaries
// into segments (one segment per core.Run replay, or one open-ended
// segment for simnet/stream traces), and checks three invariants per
// segment:
//
//  1. ε-bound — every epoch_end audit triple (pred, obs, ε) stays within
//     bounds; for replay segments the audited miss count must equal the
//     violations the run itself declared in run_end, so an out-of-ε value
//     injected into the trace is caught even when the run was lossy or
//     probabilistic and legitimately recorded misses.
//  2. silent divergence — every value a source reported is either applied
//     at the sink (sink_apply in the report span's subtree) or visibly
//     lost (net_drop); applies happen at the report's step; per-clique
//     apply steps never regress. Replicas may diverge under loss, but
//     never silently.
//  3. byte accounting — per-epoch bytes sum to the run_end totals, as do
//     values and steps, and each layer's ledger is verified against its
//     own events: the protocol ledger (epoch_end Bytes vs the report
//     payloads inside the epoch) and, for simnet traces, the radio ledger
//     (epoch_end LinkBytes vs the net_hop bytes inside the epoch). The
//     two ledgers are NOT compared to each other — see
//     docs/OBSERVABILITY.md, "Two byte ledgers".
//  4. retx accounting — every epoch's declared retransmission count
//     matches the net_retx events inside it.
//
// Under ARQ a drop only excuses an ε miss while it stays unrepaired: a
// dropped report whose attributes were all still applied at the sink (a
// retransmit got through) explains nothing and is not counted as a
// failure cause.
//
// On top of the invariants the auditor rolls up per-node, per-clique and
// per-link communication (messages, bytes, and a first-order energy
// estimate priced by simnet's radio cost model) plus epoch histograms —
// values, bytes, and latency when the trace carries wall-clock stamps.
//
// Everything in the Report is deterministic: raw span ids never appear
// (they depend on goroutine interleaving), scopes and keys are sorted,
// and integer byte totals are converted to energy only at the end — so a
// kenbench -parallel trace audits to a byte-identical report as its
// sequential twin.
//
// # Streaming
//
// The auditor is a streaming state machine: Feed events one at a time
// (or let Audit/AuditTrace drive it) and collect the Report from Finish.
// Because every pipeline emits an epoch's events strictly between its
// epoch_start and epoch_end, all per-epoch state — span links, report
// causal tails, drop records — is finalized and evicted the moment the
// epoch ends, so memory is bounded by the active-epoch window (plus the
// violations found), not by trace length. A million-epoch trace audits
// in the same memory as a hundred-epoch one.
package audit

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"ken/internal/obs"
	"ken/internal/simnet"
)

// Invariant names as they appear in Violation.Invariant.
const (
	InvEpsilon    = "epsilon-bound"
	InvDivergence = "silent-divergence"
	InvBytes      = "byte-accounting"
	InvRetx       = "retx-accounting"
)

// epsSlack mirrors core.Run's audit tolerance.
const epsSlack = 1e-9

// Violation is one invariant breach, located as precisely as the trace
// allows. Epoch is the epoch's ordinal within its segment (not the raw
// span id, which is not stable across runs); Clique and Node are -1 when
// not applicable.
type Violation struct {
	Invariant string `json:"invariant"`
	Scope     string `json:"scope"`
	Segment   int    `json:"segment"`
	Epoch     int    `json:"epoch"`
	Step      int64  `json:"step"`
	Clique    int    `json:"clique"`
	Node      int    `json:"node"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: scope %q segment %d epoch %d step %d clique %d node %d: %s",
		v.Invariant, v.Scope, v.Segment, v.Epoch, v.Step, v.Clique, v.Node, v.Detail)
}

// RunTotals are the declared totals of one run_end event.
type RunTotals struct {
	Steps      int `json:"steps"`
	Values     int `json:"values"`
	Violations int `json:"violations"`
	Bytes      int `json:"bytes"`
}

// SegmentReport summarises one audited segment (one core.Run replay, or
// one open-ended simnet/stream trace).
type SegmentReport struct {
	Scheme       string     `json:"scheme,omitempty"`
	Epochs       int        `json:"epochs"`
	Values       int        `json:"values"`
	Bytes        int        `json:"bytes"`
	EpsilonMiss  int        `json:"epsilon_misses"`
	Declared     *RunTotals `json:"declared,omitempty"`
	ViolationIdx []int      `json:"violations,omitempty"` // indices into Report.Violations
}

// ScopeReport groups a scope's segments.
type ScopeReport struct {
	Scope    string          `json:"scope"`
	Segments []SegmentReport `json:"segments"`
}

// NodeStats is the per-node communication/energy rollup.
type NodeStats struct {
	Node       int     `json:"node"`
	TxMessages int     `json:"tx_messages"`
	TxBytes    int     `json:"tx_bytes"`
	RxBytes    int     `json:"rx_bytes"`
	Reports    int     `json:"reports"`
	Values     int     `json:"values"`
	Suppressed int     `json:"suppressed"`
	Pulls      int     `json:"pulls"`
	Retx       int     `json:"retx,omitempty"`
	Acks       int     `json:"acks,omitempty"`
	Suspected  int     `json:"suspected,omitempty"`
	Died       bool    `json:"died,omitempty"`
	EnergyJ    float64 `json:"energy_j"`
}

// CliqueStats is the per-clique protocol rollup.
type CliqueStats struct {
	Clique     int `json:"clique"`
	Reports    int `json:"reports"`
	Values     int `json:"values"`
	Suppressed int `json:"suppressed"`
	Applied    int `json:"applied"`
	Dropped    int `json:"dropped"`
	Bytes      int `json:"bytes"`
}

// LinkStats is the per-link radio rollup.
type LinkStats struct {
	From     int `json:"from"`
	To       int `json:"to"`
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`
}

// Report is the auditor's full output. WriteJSON and WriteMarkdown render
// it; everything is deterministically ordered.
type Report struct {
	Events       int               `json:"events"`
	Epochs       int               `json:"epochs"`
	Violations   []Violation       `json:"violations"`
	Scopes       []ScopeReport     `json:"scopes"`
	Nodes        []NodeStats       `json:"nodes,omitempty"`
	Cliques      []CliqueStats     `json:"cliques,omitempty"`
	Links        []LinkStats       `json:"links,omitempty"`
	EpochValues  obs.HistSnapshot  `json:"epoch_values"`
	EpochBytes   obs.HistSnapshot  `json:"epoch_bytes"`
	EpochLatency *obs.HistSnapshot `json:"epoch_latency_seconds,omitempty"`
	PayloadBytes int               `json:"payload_bytes"`
	LinkBytes    int               `json:"link_bytes"`
	TotalEnergyJ float64           `json:"total_energy_j"`
}

// Clean reports whether no invariant was violated.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Auditor verifies a trace. The zero value prices energy with
// simnet.DefaultRadio().
//
// Two ways to drive it: hand Audit a decoded slice, or stream with
// Feed + Finish when the trace is too large to hold — both run the same
// state machine and produce byte-identical reports.
type Auditor struct {
	// Radio prices the first-order energy estimate of the per-node rollup
	// (Joules = TxPerByte·tx + RxPerByte·rx). Nil uses simnet.DefaultRadio().
	Radio *simnet.Radio

	st *stream
}

func (a *Auditor) radio() simnet.Radio {
	if a.Radio != nil {
		return *a.Radio
	}
	return simnet.DefaultRadio()
}

// Feed streams one event into the auditor. State accumulates until
// Finish. Memory stays bounded by the active-epoch window: per-epoch
// bookkeeping is dropped as each epoch ends.
func (a *Auditor) Feed(e obs.Event) {
	if a.st == nil {
		a.st = newStream(a.radio())
	}
	a.st.feed(&e)
}

// Finish closes all open segments, builds the Report, and resets the
// auditor for the next trace.
func (a *Auditor) Finish() *Report {
	if a.st == nil {
		a.st = newStream(a.radio())
	}
	rep := a.st.finish()
	a.st = nil
	return rep
}

// Audit verifies the invariants over a decoded event stream and builds
// the rollups. It never fails — problems become Violations in the report.
// Independent of any Feed stream in flight.
func (a *Auditor) Audit(events []obs.Event) *Report {
	s := newStream(a.radio())
	for i := range events {
		s.feed(&events[i])
	}
	return s.finish()
}

// Audit runs a zero-value Auditor over the events.
func Audit(events []obs.Event) *Report { return (&Auditor{}).Audit(events) }

// AuditTrace streams a JSONL trace (via obs.StreamEvents, so unknown
// schema versions are rejected) through the auditor without holding the
// events in memory.
func AuditTrace(r io.Reader) (*Report, error) {
	a := &Auditor{}
	if err := obs.StreamEvents(r, func(e obs.Event) error {
		a.Feed(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return a.Finish(), nil
}

type hists struct {
	values, bytes, latency obs.Histogram
	sawLatency             bool
}

// stream is the auditor's state machine. Scope states are independent
// (a scope is written by one goroutine, so file order is program order
// there, while cross-scope interleaving depends on scheduling and must
// not matter); the rollups and histograms take order-insensitive
// updates, so any interleaving of the same per-scope streams produces a
// byte-identical report.
type stream struct {
	radio  simnet.Radio
	events int
	scopes map[string]*scopeState
	h      *hists

	// rollup state (bounded by the node/clique/link population)
	nodes     map[int]*NodeStats
	cliques   map[int]*CliqueStats
	links     map[linkKey]*LinkStats
	linkBytes int
}

type linkKey struct{ from, to int }

func newStream(radio simnet.Radio) *stream {
	reg := obs.NewRegistry()
	return &stream{
		radio:  radio,
		scopes: map[string]*scopeState{},
		h: &hists{
			values:  reg.Histogram("epoch_values"),
			bytes:   reg.Histogram("epoch_bytes"),
			latency: reg.Histogram("epoch_latency_seconds"),
		},
		nodes:   map[int]*NodeStats{},
		cliques: map[int]*CliqueStats{},
		links:   map[linkKey]*LinkStats{},
	}
}

// scopeState is one scope's segment sequence: closed segments plus the
// one being fed.
type scopeState struct {
	closed []closedSegment
	cur    *segState
}

type closedSegment struct {
	seg   SegmentReport
	viols []Violation
}

func (s *stream) feed(e *obs.Event) {
	s.events++
	s.rollupEvent(e)
	sc, ok := s.scopes[e.Scope]
	if !ok {
		sc = &scopeState{}
		s.scopes[e.Scope] = sc
	}
	if sc.cur == nil {
		sc.cur = newSegState()
	}
	sc.cur.feed(s, e)
	if e.Type == obs.EvRunEnd {
		// run_end closes the segment it belongs to; the next event of the
		// scope (if any) opens the successor.
		sc.closed = append(sc.closed, sc.cur.close(s))
		sc.cur = nil
	}
}

func (s *stream) finish() *Report {
	rep := &Report{Events: s.events, Violations: []Violation{}}
	names := make([]string, 0, len(s.scopes))
	for name := range s.scopes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := s.scopes[name]
		if sc.cur != nil { // trailing open-ended segment
			sc.closed = append(sc.closed, sc.cur.close(s))
			sc.cur = nil
		}
		sr := ScopeReport{Scope: name}
		for segIdx, cs := range sc.closed {
			seg := cs.seg
			for i := range cs.viols {
				cs.viols[i].Scope, cs.viols[i].Segment = name, segIdx
				seg.ViolationIdx = append(seg.ViolationIdx, len(rep.Violations))
				rep.Violations = append(rep.Violations, cs.viols[i])
			}
			sr.Segments = append(sr.Segments, seg)
			rep.Epochs += seg.Epochs
			rep.PayloadBytes += seg.Bytes
		}
		rep.Scopes = append(rep.Scopes, sr)
	}
	s.finishRollup(rep)
	rep.EpochValues = s.h.values.Snapshot()
	rep.EpochBytes = s.h.bytes.Snapshot()
	if s.h.sawLatency {
		snap := s.h.latency.Snapshot()
		rep.EpochLatency = &snap
	}
	return rep
}

// epochRec is one epoch's audit state while it is open; everything here
// is resolved and dropped at the epoch's end.
type epochRec struct {
	id          int64
	ord         int
	step        int64
	startTS     int64
	reportBytes int
	hasReports  bool
	hopBytes    int // radio ledger: sum of net_hop bytes inside the epoch
	retx        int // net_retx events inside the epoch
	tail        epochTail
}

// epochTail is the causal bookkeeping attached to an epoch (or, for
// events outside any open epoch, to the segment's residual tail): the
// spans registered inside it, the report records rooted in it, and the
// drops recorded in it.
type epochTail struct {
	spans   []int64
	reports []*reportRec
	drops   []dropRec
}

// reportRec tracks the causal tail of one report span.
type reportRec struct {
	ev        obs.Event
	ord       int // creation ordinal within the segment, for stable output order
	epochOrd  int
	applied   map[int]bool
	dropped   map[int]bool
	blindDrop bool // a drop without attribute info covers the whole report
}

// dropRec defers the "does this drop excuse an ε miss" decision to the
// end of its epoch: a drop inside a report span whose attributes were
// all applied anyway (an ARQ retransmit repaired it) caused no divergence
// and must not excuse anything.
type dropRec struct {
	step  int64
	rr    *reportRec
	attrs []int
}

// epsMiss is one audited out-of-ε reading, held until the segment closes
// (whether it is a violation depends on the run_end totals, which arrive
// last).
type epsMiss struct {
	epochOrd int
	step     int64
	node     int
	detail   string
}

// divGroup is one report's deferred divergence violations, emitted only
// if the segment turns out to trace span-linked applies at all.
type divGroup struct {
	ord   int
	viols []Violation
}

// pendingByteV is one byte/retx-accounting violation found at an epoch's
// end. The protocol-ledger check for a zero-bytes epoch only counts when
// the segment has a run_end (an open-ended trace may legitimately not
// account bytes), which is unknown until the segment closes.
type pendingByteV struct {
	v          Violation
	needRunEnd bool
}

// segState audits one segment of one scope. Memory discipline: open
// epochs, the watermark map (one entry per clique), and anything derived
// from actual rule breaches (misses, pending violations) — never
// anything proportional to the number of finalized epochs.
type segState struct {
	open        map[int64]*epochRec
	epochCount  int
	firstDetail string
	haveDetail  bool
	sumBytes    int
	sumN        int

	parentOf     map[int64]int64
	reportBySpan map[int64]*reportRec
	residual     epochTail // events outside any open epoch (malformed traces)
	reportOrd    int

	watermark      map[int]int64
	minFail        int64 // earliest recorded death/unrepaired-loss step
	hasFail        bool
	spannedApplies bool
	runEnd         *obs.Event

	misses       []epsMiss
	vLoop        []Violation // watermark + apply-step breaches, event order
	vMalformed   []Violation // malformed audit triples, epoch order
	pendingDiv   []divGroup
	pendingBytes []pendingByteV
}

func newSegState() *segState {
	return &segState{
		open:         map[int64]*epochRec{},
		parentOf:     map[int64]int64{},
		reportBySpan: map[int64]*reportRec{},
		watermark:    map[int]int64{},
	}
}

// tailFor returns the epoch tail an event's bookkeeping belongs to: its
// open epoch, or the segment residual when it is outside any.
func (st *segState) tailFor(epochID int64) *epochTail {
	if er, ok := st.open[epochID]; ok {
		return &er.tail
	}
	return &st.residual
}

// epochOrdOf maps an epoch span id to its ordinal (-1 when unknown —
// outside any open epoch).
func (st *segState) epochOrdOf(epochID int64) int {
	if er, ok := st.open[epochID]; ok {
		return er.ord
	}
	return -1
}

func (st *segState) recordFail(step int64) {
	if !st.hasFail || step < st.minFail {
		st.minFail, st.hasFail = step, true
	}
}

// excused reports whether a recorded loss or death at or before step
// explains an ε miss there.
func (st *segState) excused(step int64) bool {
	return st.hasFail && st.minFail <= step
}

func (st *segState) feed(s *stream, e *obs.Event) {
	if e.Span != 0 {
		st.parentOf[e.Span] = e.Parent
		st.tailFor(e.Epoch).spans = append(st.tailFor(e.Epoch).spans, e.Span)
	}
	switch e.Type {
	case obs.EvEpochStart:
		er := &epochRec{id: e.Span, ord: st.epochCount, step: e.Step, startTS: e.TS}
		st.epochCount++
		if !st.haveDetail {
			st.firstDetail, st.haveDetail = e.Detail, true
		}
		if e.Span != 0 {
			st.open[e.Span] = er
		}
	case obs.EvEpochEnd:
		if er, ok := st.open[e.Epoch]; ok {
			st.finalizeEpoch(s, er, e)
			delete(st.open, e.Epoch)
		}
	case obs.EvReport:
		rr := &reportRec{ev: *e, ord: st.reportOrd, epochOrd: st.epochOrdOf(e.Epoch),
			applied: map[int]bool{}, dropped: map[int]bool{}}
		st.reportOrd++
		tail := st.tailFor(e.Epoch)
		tail.reports = append(tail.reports, rr)
		if e.Span != 0 {
			st.reportBySpan[e.Span] = rr
		}
		if er, ok := st.open[e.Epoch]; ok {
			er.hasReports = true
			if e.Payload != nil {
				er.reportBytes += e.Payload.Bytes
			}
		}
	case obs.EvApply:
		if e.Parent != 0 {
			st.spannedApplies = true
		}
		if e.Clique >= 0 {
			if last, ok := st.watermark[e.Clique]; ok && e.Step < last {
				st.vLoop = append(st.vLoop, Violation{Invariant: InvDivergence,
					Epoch: st.epochOrdOf(e.Epoch), Step: e.Step, Clique: e.Clique, Node: e.Node,
					Detail: fmt.Sprintf("sink apply step %d regresses below clique watermark %d", e.Step, last)})
			} else {
				st.watermark[e.Clique] = e.Step
			}
		}
		if rr := reportFor(st.reportBySpan, st.parentOf, e.Parent); rr != nil {
			for _, attr := range e.Attrs {
				rr.applied[attr] = true
			}
			if e.Step != rr.ev.Step {
				st.vLoop = append(st.vLoop, Violation{Invariant: InvDivergence,
					Epoch: st.epochOrdOf(e.Epoch), Step: e.Step, Clique: e.Clique, Node: e.Node,
					Detail: fmt.Sprintf("sink applied at step %d a report from step %d", e.Step, rr.ev.Step)})
			}
		}
	case obs.EvDrop:
		rr := reportFor(st.reportBySpan, st.parentOf, e.Parent)
		tail := st.tailFor(e.Epoch)
		tail.drops = append(tail.drops, dropRec{step: e.Step, rr: rr, attrs: e.Attrs})
		if rr != nil {
			if len(e.Attrs) == 0 {
				rr.blindDrop = true
			}
			for _, attr := range e.Attrs {
				rr.dropped[attr] = true
			}
		}
	case obs.EvHop:
		if er, ok := st.open[e.Epoch]; ok && e.Payload != nil {
			er.hopBytes += e.Payload.Bytes
		}
	case obs.EvRetx:
		if er, ok := st.open[e.Epoch]; ok {
			er.retx++
		}
	case obs.EvNodeFailure:
		st.recordFail(e.Step)
	case obs.EvRunEnd:
		ev := *e
		st.runEnd = &ev
	}
}

// finalizeEpoch resolves everything the epoch's end settles — the audit
// triple, drop repair status, report divergence, ledger checks, sums and
// histograms — then evicts the epoch's span bookkeeping. All pipelines
// emit an epoch's events strictly inside its start/end bracket, so
// nothing resolved here can be contradicted by later events.
func (st *segState) finalizeEpoch(s *stream, er *epochRec, end *obs.Event) {
	n := end.N
	bytes := 0
	if end.Payload != nil {
		bytes = end.Payload.Bytes
	}
	st.sumN += n
	st.sumBytes += bytes

	s.h.values.Observe(float64(n))
	s.h.bytes.Observe(float64(bytes))
	if er.startTS != 0 && end.TS != 0 {
		s.h.latency.Observe(float64(end.TS-er.startTS) / 1e9)
		s.h.sawLatency = true
	}

	// ε triple. Misses are held until the segment closes (the verdict
	// depends on run_end); malformed triples are violations outright.
	if p := end.Payload; p != nil && len(p.Eps) > 0 {
		if len(p.Predicted) != len(p.Observed) || len(p.Eps) != len(p.Observed) {
			st.vMalformed = append(st.vMalformed, Violation{Invariant: InvEpsilon,
				Epoch: er.ord, Step: er.step, Clique: -1, Node: -1,
				Detail: fmt.Sprintf("malformed audit triple: %d predicted, %d observed, %d eps",
					len(p.Predicted), len(p.Observed), len(p.Eps))})
		} else {
			for i := range p.Observed {
				if d := math.Abs(p.Predicted[i] - p.Observed[i]); d > p.Eps[i]+epsSlack {
					st.misses = append(st.misses, epsMiss{epochOrd: er.ord, step: er.step, node: i,
						detail: fmt.Sprintf("estimate %g misses truth %g by %g > ε %g",
							p.Predicted[i], p.Observed[i], d, p.Eps[i])})
				}
			}
		}
	}

	st.resolveTail(&er.tail)

	// Ledger checks. The protocol-ledger check on a zero-bytes epoch only
	// stands in run_end-closed segments, which is unknown until close.
	if er.hasReports && er.reportBytes != bytes {
		st.pendingBytes = append(st.pendingBytes, pendingByteV{
			needRunEnd: bytes == 0,
			v: Violation{Invariant: InvBytes, Epoch: er.ord, Step: er.step, Clique: -1, Node: -1,
				Detail: fmt.Sprintf("report events carry %d bytes but the epoch accounts %d", er.reportBytes, bytes)},
		})
	}
	if p := end.Payload; p != nil {
		if p.LinkBytes != er.hopBytes {
			st.pendingBytes = append(st.pendingBytes, pendingByteV{
				v: Violation{Invariant: InvBytes, Epoch: er.ord, Step: er.step, Clique: -1, Node: -1,
					Detail: fmt.Sprintf("net_hop events carry %d link bytes but the epoch declares %d", er.hopBytes, p.LinkBytes)},
			})
		}
		if p.Retx != er.retx {
			st.pendingBytes = append(st.pendingBytes, pendingByteV{
				v: Violation{Invariant: InvRetx, Epoch: er.ord, Step: er.step, Clique: -1, Node: -1,
					Detail: fmt.Sprintf("trace shows %d retransmissions but the epoch declares %d", er.retx, p.Retx)},
			})
		}
	}
}

// resolveTail settles a finished tail: classifies its drops (repaired or
// excusing), records each report's divergence verdicts, and evicts its
// span bookkeeping.
func (st *segState) resolveTail(tail *epochTail) {
	// A drop excuses misses only while unrepaired: if every attribute it
	// lost was applied at the sink anyway, a retransmit repaired it and the
	// replicas never diverged. Drops outside a report span (member-to-root
	// collection traffic, dead-source drops) cannot be proven repaired and
	// stay valid excuses.
	for _, d := range tail.drops {
		repaired := d.rr != nil && len(d.attrs) > 0
		if repaired {
			for _, attr := range d.attrs {
				if !d.rr.applied[attr] {
					repaired = false
					break
				}
			}
		}
		if !repaired {
			st.recordFail(d.step)
		}
	}
	// Divergence verdicts per report, deferred behind the segment-wide
	// spannedApplies gate (a source-only stream trace has reports with no
	// visible sink and is not held to this invariant).
	for _, rr := range tail.reports {
		if rr.ev.Span == 0 {
			continue
		}
		var viols []Violation
		for _, attr := range rr.ev.Attrs {
			if !rr.applied[attr] && !rr.dropped[attr] && !rr.blindDrop {
				viols = append(viols, Violation{Invariant: InvDivergence,
					Epoch: rr.epochOrd, Step: rr.ev.Step, Clique: rr.ev.Clique, Node: rr.ev.Node,
					Detail: fmt.Sprintf("reported attribute %d has neither a sink apply nor a recorded drop", attr)})
			}
		}
		for _, attr := range sortedKeys(rr.applied) {
			if !containsInt(rr.ev.Attrs, attr) {
				viols = append(viols, Violation{Invariant: InvDivergence,
					Epoch: rr.epochOrd, Step: rr.ev.Step, Clique: rr.ev.Clique, Node: rr.ev.Node,
					Detail: fmt.Sprintf("sink applied attribute %d that was never reported", attr)})
			}
		}
		if len(viols) > 0 {
			st.pendingDiv = append(st.pendingDiv, divGroup{ord: rr.ord, viols: viols})
		}
	}
	for _, span := range tail.spans {
		delete(st.parentOf, span)
		delete(st.reportBySpan, span)
	}
	*tail = epochTail{}
}

// close finishes the segment: resolves everything that waited on the
// run_end (or its absence), assembles the violation list in the report's
// canonical order, and returns the summary.
func (st *segState) close(s *stream) closedSegment {
	// Epochs that never ended, and events outside any epoch, still owe
	// their drop/divergence resolution (their triples and ledgers are
	// unjudgeable without an epoch_end).
	openIDs := make([]int64, 0, len(st.open))
	for id := range st.open {
		openIDs = append(openIDs, id)
	}
	sort.Slice(openIDs, func(i, j int) bool { return openIDs[i] < openIDs[j] })
	for _, id := range openIDs {
		st.resolveTail(&st.open[id].tail)
	}
	st.resolveTail(&st.residual)

	var declared *RunTotals
	if st.runEnd != nil && st.runEnd.Payload != nil {
		declared = &RunTotals{
			Steps: st.runEnd.Payload.Steps, Values: st.runEnd.Payload.Values,
			Violations: st.runEnd.Payload.Violations, Bytes: st.runEnd.Payload.Bytes,
		}
	}

	// ε verdict, now that the declared totals are known.
	var vEps []Violation
	switch {
	case declared != nil && len(st.misses) != declared.Violations:
		// The trace and the run disagree about how often ε was missed —
		// either the payloads were tampered with or the sink lied.
		if declared.Violations == 0 {
			for _, m := range st.misses {
				vEps = append(vEps, Violation{Invariant: InvEpsilon, Epoch: m.epochOrd, Step: m.step,
					Clique: -1, Node: m.node, Detail: m.detail})
			}
		} else {
			v := Violation{Invariant: InvEpsilon, Epoch: -1, Step: -1, Clique: -1, Node: -1,
				Detail: fmt.Sprintf("trace shows %d ε misses but run_end declares %d", len(st.misses), declared.Violations)}
			if len(st.misses) > 0 {
				m := st.misses[0]
				v.Epoch, v.Step, v.Node = m.epochOrd, m.step, m.node
			}
			vEps = append(vEps, v)
		}
	case declared == nil:
		// Open-ended segment (simnet/stream): a miss is legitimate only
		// when the trace shows a cause — message loss or a node death at or
		// before the epoch. A miss on a clean network is a broken guarantee.
		for _, m := range st.misses {
			if !st.excused(m.step) {
				vEps = append(vEps, Violation{Invariant: InvEpsilon, Epoch: m.epochOrd, Step: m.step,
					Clique: -1, Node: m.node, Detail: m.detail})
			}
		}
	}

	var viols []Violation
	viols = append(viols, st.vLoop...)
	viols = append(viols, st.vMalformed...)
	viols = append(viols, vEps...)
	if st.spannedApplies {
		sort.SliceStable(st.pendingDiv, func(i, j int) bool { return st.pendingDiv[i].ord < st.pendingDiv[j].ord })
		for _, g := range st.pendingDiv {
			viols = append(viols, g.viols...)
		}
	}
	for _, pv := range st.pendingBytes {
		if pv.needRunEnd && st.runEnd == nil {
			continue
		}
		viols = append(viols, pv.v)
	}
	if declared != nil {
		if st.epochCount != declared.Steps {
			viols = append(viols, Violation{Invariant: InvBytes, Epoch: -1, Step: -1, Clique: -1, Node: -1,
				Detail: fmt.Sprintf("trace has %d epochs but run_end declares %d steps", st.epochCount, declared.Steps)})
		}
		if st.sumN != declared.Values {
			viols = append(viols, Violation{Invariant: InvBytes, Epoch: -1, Step: -1, Clique: -1, Node: -1,
				Detail: fmt.Sprintf("epochs report %d values but run_end declares %d", st.sumN, declared.Values)})
		}
		if st.sumBytes != declared.Bytes {
			viols = append(viols, Violation{Invariant: InvBytes, Epoch: -1, Step: -1, Clique: -1, Node: -1,
				Detail: fmt.Sprintf("epochs account %d bytes but run_end declares %d", st.sumBytes, declared.Bytes)})
		}
	}

	seg := SegmentReport{
		Epochs: st.epochCount, Values: st.sumN, Bytes: st.sumBytes,
		EpsilonMiss: len(st.misses), Declared: declared,
	}
	if st.runEnd != nil && st.runEnd.Detail != "" {
		seg.Scheme = st.runEnd.Detail
	} else if st.haveDetail {
		seg.Scheme = st.firstDetail
	}
	return closedSegment{seg: seg, viols: viols}
}

// reportFor walks the span parent chain from parent up to the report span
// that caused it (nil when uncaused). The walk is bounded to survive
// corrupted parent cycles.
func reportFor(reports map[int64]*reportRec, parentOf map[int64]int64, parent int64) *reportRec {
	for hops := 0; parent != 0 && hops < 64; hops++ {
		if rr, ok := reports[parent]; ok {
			return rr
		}
		parent = parentOf[parent]
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// rollupEvent feeds one event into the per-node / per-clique / per-link
// communication tables. All updates are integer additions, so arrival
// order cannot perturb the totals; energy stays un-priced until
// finishRollup so summation order cannot perturb the floats either.
func (s *stream) rollupEvent(e *obs.Event) {
	node := func(i int) *NodeStats {
		if n, ok := s.nodes[i]; ok {
			return n
		}
		n := &NodeStats{Node: i}
		s.nodes[i] = n
		return n
	}
	clique := func(i int) *CliqueStats {
		if c, ok := s.cliques[i]; ok {
			return c
		}
		c := &CliqueStats{Clique: i}
		s.cliques[i] = c
		return c
	}
	switch e.Type {
	case obs.EvHop:
		if e.Payload == nil {
			return
		}
		tx := node(e.Payload.From)
		tx.TxMessages++
		tx.TxBytes += e.Payload.Bytes
		node(e.Payload.To).RxBytes += e.Payload.Bytes
		s.linkBytes += e.Payload.Bytes
		k := linkKey{e.Payload.From, e.Payload.To}
		l, ok := s.links[k]
		if !ok {
			l = &LinkStats{From: k.from, To: k.to}
			s.links[k] = l
		}
		l.Messages++
		l.Bytes += e.Payload.Bytes
	case obs.EvReport:
		if e.Node >= 0 {
			n := node(e.Node)
			n.Reports++
			n.Values += len(e.Attrs)
		}
		if e.Clique >= 0 {
			c := clique(e.Clique)
			c.Reports++
			c.Values += len(e.Attrs)
			if e.Payload != nil {
				c.Bytes += e.Payload.Bytes
			}
		}
	case obs.EvSuppress:
		if e.Node >= 0 {
			node(e.Node).Suppressed += len(e.Attrs)
		}
		if e.Clique >= 0 {
			clique(e.Clique).Suppressed += len(e.Attrs)
		}
	case obs.EvApply:
		if e.Clique >= 0 {
			clique(e.Clique).Applied += len(e.Attrs)
		}
	case obs.EvDrop:
		if e.Clique >= 0 {
			clique(e.Clique).Dropped += len(e.Attrs)
		}
	case obs.EvPull:
		if e.Node >= 0 {
			node(e.Node).Pulls++
		}
	case obs.EvRetx:
		if e.Node >= 0 {
			node(e.Node).Retx++
		}
	case obs.EvAck:
		if e.Node >= 0 {
			node(e.Node).Acks++
		}
	case obs.EvSuspect:
		if e.Node >= 0 {
			node(e.Node).Suspected++
		}
	case obs.EvNodeFailure:
		if e.Node >= 0 {
			node(e.Node).Died = true
		}
	}
}

// finishRollup prices energy and emits the sorted rollup tables.
func (s *stream) finishRollup(rep *Report) {
	rep.LinkBytes = s.linkBytes
	totalTx, totalRx := 0, 0
	for _, i := range sortedKeys(s.nodes) {
		n := s.nodes[i]
		n.EnergyJ = float64(n.TxBytes)*s.radio.TxPerByte + float64(n.RxBytes)*s.radio.RxPerByte
		totalTx += n.TxBytes
		totalRx += n.RxBytes
		rep.Nodes = append(rep.Nodes, *n)
	}
	rep.TotalEnergyJ = float64(totalTx)*s.radio.TxPerByte + float64(totalRx)*s.radio.RxPerByte
	for _, i := range sortedKeys(s.cliques) {
		rep.Cliques = append(rep.Cliques, *s.cliques[i])
	}
	linkKeys := make([]linkKey, 0, len(s.links))
	for k := range s.links {
		linkKeys = append(linkKeys, k)
	}
	sort.Slice(linkKeys, func(i, j int) bool {
		if linkKeys[i].from != linkKeys[j].from {
			return linkKeys[i].from < linkKeys[j].from
		}
		return linkKeys[i].to < linkKeys[j].to
	})
	for _, k := range linkKeys {
		rep.Links = append(rep.Links, *s.links[k])
	}
}
