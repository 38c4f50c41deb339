package protocol

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"ken/internal/model"
	"ken/internal/obs"
)

// blackout is a fault-injecting channel: it drops every report whole for
// `every`−1 epochs, calls a heartbeat on the next and lets that one through.
// dropped[ci] says whether clique ci has lost a non-empty report since the
// last heartbeat.
type blackout struct {
	every, epoch int
	heartbeat    bool
	dropped      []bool
	drops        int
}

func (b *blackout) Heartbeat() bool {
	b.epoch++
	b.heartbeat = b.epoch%b.every == 0
	return b.heartbeat
}

func (b *blackout) Collect(int, []float64) []int { return nil }

func (b *blackout) Carry(ci int, idx []int, vals []float64, _ obs.Span) ([]int, []float64, []int) {
	if b.heartbeat {
		b.dropped[ci] = false
		return idx, vals, nil
	}
	if len(idx) > 0 {
		b.dropped[ci] = true
		b.drops++
	}
	return nil, nil, nil
}

// gardenLoop fits pairs of garden attributes and returns a two-sided loop
// over ch with the test rows and the shared bound.
func gardenLoop(t *testing.T, n int, ch Channel) (*Loop, [][]float64, float64) {
	t.Helper()
	const eps = 0.5
	data := gardenCols(t, 400, n)
	l := &Loop{N: n, Channel: ch, Choose: (*Kernel).Choose}
	train := data[:100]
	for lo := 0; lo < n; lo += 2 {
		k := fitKernel(t, train, uniform(n, eps), []int{lo, lo + 1})
		l.Src, l.Roots = append(l.Src, k), append(l.Roots, lo)
	}
	l.Mirror()
	return l, data[100:], eps
}

// TestLoopFaultInjection drives the loop through the blackout channel — the
// fault injection written once, against the loop instead of against each
// transport. The §6 claims hold at the replica level: right after a
// heartbeat every clique's source and sink replicas are bitwise equal, and
// between heartbeats the sink misses ε only in cliques that lost a report —
// a clique whose reports were all empty stays exact through the blackout.
func TestLoopFaultInjection(t *testing.T) {
	const n = 6
	ch := &blackout{every: 7, dropped: make([]bool, n/2)}
	l, test, eps := gardenLoop(t, n, ch)
	est := make([]float64, n)
	misses, diverged := 0, false
	for step, truth := range test {
		if err := l.Check(truth); err != nil {
			t.Fatal(err)
		}
		if err := l.Epoch(int64(step), obs.Span{}, truth); err != nil {
			t.Fatal(err)
		}
		l.Estimates(est)
		for ci, src := range l.Src {
			same := true
			for i, v := range src.Mean() {
				same = same && math.Float64bits(v) == math.Float64bits(l.Sink[ci].Mean()[i])
			}
			if ch.heartbeat && !same {
				t.Fatalf("step %d clique %d: replicas differ right after a heartbeat", step, ci)
			}
			diverged = diverged || !same
			for _, g := range src.Members() {
				if math.Abs(est[g]-truth[g]) <= eps+1e-9 {
					continue
				}
				misses++
				if !ch.dropped[ci] {
					t.Fatalf("step %d: attribute %d misses ε in clique %d, which lost no report", step, g, ci)
				}
			}
		}
	}
	if ch.drops == 0 || misses == 0 || !diverged {
		t.Fatalf("%d reports dropped, %d ε misses, diverged %v: the blackout was never felt", ch.drops, misses, diverged)
	}
}

// act is what the scripted channel does to one clique in one epoch.
type act int

const (
	pass     act = iota // the report arrives as sent
	dropOne             // its first value is lost
	dropAll             // all of it is lost
	deadRoot            // the root heard no member: an empty report, arriving empty
	partial             // the root heard only its first member (on a heartbeat: a partial heartbeat)
	quantise            // Carry rounds the values in place: both replicas commit the rounded ones
	garble              // the same indices arrive with rounded values in a copy: other bits than the source's
	corrupt             // a NaN arrives: the sink's commit fails
	refuse              // the report policy errors before anything is sent
)

// scripted plays a fixed schedule: epoch e is a heartbeat when beats[e],
// and clique ci's report meets acts[e][ci]. It records which cliques the
// epoch reached and a copy of what arrived, for the test's computing sinks.
type scripted struct {
	beats   []bool
	acts    [][]act
	epoch   int
	cur     int
	reached []bool
	arrived [][]float64 // arrived[ci]: nil, or the delivered values beside arrivedIdx[ci]
	arrIdx  [][]int
	buf     []float64
	lost    int // values the schedule dropped or changed, over the run
}

func (s *scripted) act(ci int) act { return s.acts[s.epoch-1][ci] }

func (s *scripted) Heartbeat() bool {
	s.epoch++
	for ci := range s.reached {
		s.reached[ci], s.arrived[ci], s.arrIdx[ci] = false, nil, nil
	}
	return s.beats[s.epoch-1]
}

func (s *scripted) Collect(ci int, _ []float64) []int {
	s.cur, s.reached[ci] = ci, true
	switch s.act(ci) {
	case deadRoot:
		return []int{}
	case partial:
		return []int{0}
	}
	return nil
}

func (s *scripted) Carry(ci int, idx []int, vals []float64, _ obs.Span) ([]int, []float64, []int) {
	dIdx, dVals := idx, vals
	switch s.act(ci) {
	case dropOne:
		if len(idx) > 0 {
			dIdx, dVals = idx[1:], vals[1:]
		}
	case dropAll:
		dIdx, dVals = nil, nil
	case quantise:
		for j, v := range vals {
			vals[j] = math.Round(v*16) / 16
		}
	case garble:
		s.buf = s.buf[:0]
		for _, v := range vals {
			s.buf = append(s.buf, math.Round(v*16)/16)
		}
		dVals = s.buf
	case corrupt:
		dIdx, dVals = []int{0}, []float64{math.NaN()}
	}
	if len(dIdx) != len(idx) || (len(dVals) > 0 && &dVals[0] != &vals[0]) {
		s.lost++
	}
	s.arrIdx[ci] = append([]int(nil), dIdx...)
	s.arrived[ci] = append([]float64{}, dVals...)
	return dIdx, dVals, nil
}

// witnessed is the scripted channel for cliques with one evidence slot:
// each epoch the source's evidence is the reading of the clique's evidence
// attribute, and the sink's is the same, or off by a quarter where the
// schedule skews it — a node cut off from the disseminated average. It
// records each clique's sink evidence for the test's computing sinks.
type witnessed struct {
	*scripted
	rows   [][]float64
	attr   []int    // attr[ci]: the global attribute clique ci's evidence reads
	skew   [][]bool // skew[e][ci]: the sink's evidence differs in epoch e
	sinkEv [][]float64
}

func (w *witnessed) Evidence(ci int) (src, sink []float64) {
	v := w.rows[w.epoch-1][w.attr[ci]]
	src, sink = []float64{v}, []float64{v}
	if w.skew[w.epoch-1][ci] {
		sink[0] += 0.25
	}
	w.sinkEv[ci] = sink
	return src, sink
}

// choose is the scripted report policy: Choose, except where the schedule
// refuses.
func (s *scripted) choose(src *Kernel, truth []float64, cand []int) ([]int, []float64, error) {
	if s.act(s.cur) == refuse {
		return nil, nil, errors.New("scripted refusal")
	}
	return src.Choose(truth, cand)
}

// arrivals replays what a scripted channel delivered to a sink-only loop
// (SinkEpoch): the epoch's heartbeat flag and, per clique, what arrived. A
// clique the source refused was reached but sent nothing, so the epoch ends
// there after the sink's prediction; a report the sink's model refuses
// before reading anything — an index outside the clique — ends it at the
// same point.
type arrivals struct{ *scripted }

func (a arrivals) Heartbeat() bool              { return a.beats[a.epoch-1] }
func (a arrivals) Collect(int, []float64) []int { return nil }
func (a arrivals) Carry(ci int, _ []int, _ []float64, _ obs.Span) ([]int, []float64, []int) {
	if a.reached[ci] && a.arrived[ci] == nil {
		return []int{-1}, []float64{0}, nil
	}
	return a.arrIdx[ci], a.arrived[ci], nil
}

// applies returns a trace's sink_apply events with their parent dropped: a
// sink in another process has no report span to nest under.
func applies(t *testing.T, trace *bytes.Buffer) []obs.Event {
	t.Helper()
	events, err := obs.ReadEvents(trace)
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.Event
	for _, e := range events {
		if e.Type == obs.EvApply {
			e.Parent = 0
			out = append(out, e)
		}
	}
	return out
}

// twinSchedule is the schedule of TestSinkTwinMatchesComputedSink, over two
// cliques, repeated: each line says what it takes a twin sink through. skew
// says, for cliques with evidence, whose sink holds other evidence than its
// source (witnessed).
func twinSchedule(repeats int) (beats []bool, acts [][]act, skew [][]bool) {
	base := []struct {
		hb   bool
		acts []act
	}{
		{false, []act{pass, pass}},
		{false, []act{pass, dropOne}},     // clique 1 loses a value
		{false, []act{pass, pass}},        // … and a partial report arrives whole: still no twin
		{false, []act{dropAll, pass}},     // clique 0 loses its report
		{true, []act{pass, pass}},         // a whole heartbeat: both twins again
		{false, []act{deadRoot, pass}},    // a dead root's empty report arrives empty: kept
		{false, []act{quantise, garble}},  // rounded in place: kept; rounded in a copy: cleared
		{false, []act{pass, pass}},        //
		{true, []act{partial, partial}},   // a partial heartbeat keeps a twin, makes none
		{false, []act{pass, pass}},        //
		{true, []act{pass, pass}},         // whole heartbeat
		{false, []act{refuse, pass}},      // clique 0 errs; clique 1 is not reached
		{false, []act{pass, pass}},        //
		{true, []act{pass, pass}},         // whole heartbeat
		{false, []act{pass, corrupt}},     // clique 1's sink fails to commit
		{false, []act{pass, pass}},        //
		{true, []act{deadRoot, pass}},     // a heartbeat at a dead root
		{false, []act{pass, refuse}},      // an error at a clique that is no twin
		{false, []act{pass, pass}},        //
		{false, []act{dropOne, quantise}}, //
	}
	// The lines of base on which a clique's evidence differs between the
	// sides, and which cliques.
	skewed := map[int][]bool{
		2:  {true, false}, // clique 0 orphaned on an epoch that passes: no twin
		3:  {true, false}, // … and its report lost besides
		4:  {false, true}, // a whole heartbeat: clique 0 agrees again right after and re-twins; clique 1 differs and makes none
		7:  {true, true},  // both orphaned on an epoch that passes
		9:  {false, true}, //
		10: {true, false}, // a whole heartbeat on differing evidence: no re-twin
		11: {false, true}, // clique 0 errs, so clique 1's skew is never read
		18: {true, false}, //
	}
	for range repeats {
		for line, e := range base {
			beats, acts = append(beats, e.hb), append(acts, e.acts)
			sk := skewed[line]
			if sk == nil {
				sk = []bool{false, false}
			}
			skew = append(skew, sk)
		}
	}
	return beats, acts, skew
}

// replicaBits is everything of a LinearGaussian replica an answer or a
// report can depend on, as bits: its mean, its Σ settled (read off a clone,
// so the replica's own debt is left alone), its clock and its owed count.
func replicaBits(t *testing.T, k *Kernel) []uint64 {
	t.Helper()
	lg := k.Model().(*model.LinearGaussian)
	var bits []uint64
	for _, v := range model.MeanOf(lg) {
		bits = append(bits, math.Float64bits(v))
	}
	for _, v := range lg.Clone().(*model.LinearGaussian).Cov().DataView() {
		bits = append(bits, math.Float64bits(v))
	}
	// The debt is unexported; reflection reads it without settling it.
	owed := reflect.ValueOf(lg).Elem().FieldByName("owed").Int()
	return append(bits, uint64(lg.Clock()), uint64(owed))
}

// TestSinkTwinMatchesComputedSink holds the twin rule to the sink it
// replaces. A scripted channel takes two cliques through loss of a value and
// of a report, dead roots, whole and partial heartbeats, values quantised
// in place and rewritten in a copy, and errors at the source and at the
// sink. After every epoch each sink of the loop — which copies its source
// whenever it can prove them twins — must be bitwise an independent clone
// that ran Predict + Commit on exactly what arrived; a loop whose sinks it
// did not mirror, so never twins, must write the same trace; and a sink-only
// loop fed each epoch's arrivals through SinkEpoch, the sink half a source in
// another process drives, must hold the same bits and apply the same events.
// The same schedule runs again on cliques with an evidence slot over a
// channel that also supplies evidence (witnessed): agreeing on most epochs,
// differing on some, and a whole heartbeat right after a difference; there
// the clone also conditions on the sink's evidence after each Predict.
func TestSinkTwinMatchesComputedSink(t *testing.T) {
	const n, eps = 6, 0.05
	data := gardenCols(t, 200, n)
	train := data[:100]
	beats, acts, skew := twinSchedule(4)
	test := data[100 : 100+len(beats)]
	for _, evidence := range []bool{false, true} {
		var proto []*Kernel
		if evidence {
			// Cliques {0, 1} and {3, 4}, each model's third slot the
			// evidence read off attribute 2 or 5.
			for _, cols := range [][]int{{0, 1, 2}, {3, 4, 5}} {
				m, err := model.FitColumns(train, cols, model.FitConfig{Period: 24})
				if err != nil {
					t.Fatal(err)
				}
				k, err := New(m, cols[:2], uniform(2, eps))
				if err != nil {
					t.Fatal(err)
				}
				proto = append(proto, k)
			}
		} else {
			for _, members := range [][]int{{0, 1, 2}, {3, 4, 5}} {
				proto = append(proto, fitKernel(t, train, uniform(n, eps), members))
			}
		}
		clones := func() []*Kernel {
			out := make([]*Kernel, len(proto))
			for ci, k := range proto {
				out[ci] = k.Clone()
			}
			return out
		}
		loop := func(mirror bool, tr *obs.Tracer) (*Loop, *scripted, *witnessed) {
			ch := &scripted{beats: beats, acts: acts, reached: make([]bool, 2), arrived: make([][]float64, 2), arrIdx: make([][]int, 2)}
			l := &Loop{Src: clones(), Roots: []int{0, 3}, N: n, Channel: ch, Choose: ch.choose, Tracer: tr}
			var w *witnessed
			if evidence {
				w = &witnessed{scripted: ch, rows: test, attr: []int{2, 5}, skew: skew, sinkEv: make([][]float64, 2)}
				l.Channel = w
			}
			if mirror {
				l.Mirror()
			} else {
				l.Sink = clones()
			}
			return l, ch, w
		}
		for _, traced := range []bool{false, true} {
			var twinTrace, computedTrace bytes.Buffer
			var twinTr, computedTr *obs.Tracer
			if traced {
				twinTr, computedTr = obs.NewTracer(&twinTrace), obs.NewTracer(&computedTrace)
			}
			twins, ch, w := loop(true, twinTr)
			computing, _, _ := loop(false, computedTr)
			var remoteTrace bytes.Buffer
			var remoteTr *obs.Tracer
			if traced {
				remoteTr = obs.NewTracer(&remoteTrace)
			}
			// The sink-only loop carries no evidence: it runs on ordinary
			// cliques only.
			remote := &Loop{Sink: clones(), Channel: arrivals{ch}, Tracer: remoteTr}
			ref := clones()
			copies, retwins, errs, differs := 0, 0, 0, 0
			for e, truth := range test {
				before := append([]bool(nil), twins.twin...)
				err := twins.Epoch(int64(e), obs.Span{}, truth)
				cerr := computing.Epoch(int64(e), obs.Span{}, truth)
				if (err == nil) != (cerr == nil) {
					t.Fatalf("epoch %d: twin loop err %v, computing loop err %v", e, err, cerr)
				}
				if err != nil {
					errs++
				}
				if !evidence {
					if rerr := remote.SinkEpoch(int64(e), obs.Span{}); (rerr == nil) != (err == nil) {
						t.Fatalf("epoch %d: twin loop err %v, sink-only loop err %v", e, err, rerr)
					}
				}
				for ci, r := range ref {
					if !ch.reached[ci] {
						continue
					}
					var ev []float64
					if evidence {
						ev = w.sinkEv[ci]
						if skew[e][ci] {
							differs++
						}
					}
					r.Predict()
					if err := r.observe(ev); err != nil {
						t.Fatal(err)
					}
					if ch.arrived[ci] != nil {
						_ = r.Commit(ch.arrIdx[ci], ch.arrived[ci]) // fails where the sink's did
					}
					switch {
					case before[ci] && twins.twin[ci]: // kept: the epoch was a copy
						copies++
					case !before[ci] && twins.twin[ci]:
						retwins++
					}
				}
				for ci, sink := range twins.Sink {
					want := replicaBits(t, ref[ci])
					if got := replicaBits(t, sink); !reflect.DeepEqual(got, want) {
						t.Fatalf("evidence %v, traced %v, epoch %d (%v, heartbeat %v, skew %v), clique %d: the sink differs from a clone that computed what arrived",
							evidence, traced, e, acts[e], beats[e], skew[e], ci)
					}
					if got := replicaBits(t, computing.Sink[ci]); !reflect.DeepEqual(got, want) {
						t.Fatalf("evidence %v, epoch %d clique %d: the computing loop's sink differs from the clone", evidence, e, ci)
					}
					if evidence {
						continue
					}
					if got := replicaBits(t, remote.Sink[ci]); !reflect.DeepEqual(got, want) {
						t.Fatalf("traced %v, epoch %d clique %d: the sink-only loop differs from the clone", traced, e, ci)
					}
				}
			}
			if copies == 0 || retwins == 0 || errs == 0 || ch.lost == 0 || (evidence && differs == 0) {
				t.Fatalf("evidence %v: schedule not felt: %d copied epochs, %d re-twins, %d errors, %d changed deliveries, %d differing evidence",
					evidence, copies, retwins, errs, ch.lost, differs)
			}
			if traced {
				if err := twinTr.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := computedTr.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := remoteTr.Flush(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(twinTrace.Bytes(), computedTrace.Bytes()) {
					t.Fatalf("evidence %v: the twin loop's trace differs from the computing loop's", evidence)
				}
				if !evidence {
					want, got := applies(t, &twinTrace), applies(t, &remoteTrace)
					if len(want) == 0 || !reflect.DeepEqual(got, want) {
						t.Fatalf("the sink-only loop applied %d events unlike the twin loop's %d", len(got), len(want))
					}
				}
			}
			t.Logf("evidence %v, traced %v: %d copied clique-epochs, %d re-twins, %d errors, %d differing evidence",
				evidence, traced, copies, retwins, errs, differs)
		}
	}
}
