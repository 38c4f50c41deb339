package stream

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"ken/internal/cliques"
	"ken/internal/gauss"
	"ken/internal/model"
	"ken/internal/protocol"
	"ken/internal/trace"
	"ken/internal/wire"
)

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCollectFrameOrderIsDeterministic: two sources built alike emit
// identical frames, attributes listed clique by clique and ascending within
// a clique — here, with consecutive cliques, ascending outright — where map
// iteration used to shuffle a clique's values.
func TestCollectFrameOrderIsDeterministic(t *testing.T) {
	cfg, rows := chainConfig(t, trace.GenerateLab, 3, 8, 500)
	collect := func() []wire.Frame {
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]wire.Frame, len(rows))
		for i, row := range rows {
			if frames[i], err = src.Collect(row); err != nil {
				t.Fatal(err)
			}
		}
		return frames
	}
	a, b := collect(), collect()
	multi := 0
	for i := range a {
		if !reflect.DeepEqual(a[i].Attrs, b[i].Attrs) || !bitsEqual(a[i].Values, b[i].Values) {
			t.Fatalf("frame %d: %v vs %v", i, a[i].Attrs, b[i].Attrs)
		}
		for j := 1; j < len(a[i].Attrs); j++ {
			if a[i].Attrs[j] <= a[i].Attrs[j-1] {
				t.Fatalf("frame %d lists %v, want ascending", i, a[i].Attrs)
			}
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no frame carried two values — ordering was never exercised")
	}
}

// TestApplyRejectsBeforeMutating: a frame the replica cannot apply —
// non-finite value, duplicate, out-of-range or out-of-order attribute, or
// more attributes than values — is rejected whole. The offending entry sits
// in the last clique, behind valid reports for the earlier ones; the answer
// must be bitwise what it was, and the stream must continue in lock-step
// with a reference replica that never saw the bad frame.
func TestApplyRejectsBeforeMutating(t *testing.T) {
	cfg, rows := chainConfig(t, trace.GenerateLab, 3, 8, 60)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(cfg.Eps) - 1 // attribute 48: alone in the last clique
	for step, row := range rows {
		good, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		// Valid reports for the first two cliques, then the fault.
		lead := wire.Frame{Step: good.Step, Attrs: []int{1, 9}, Values: []float64{row[1], row[9]}}
		with := func(attrs []int, vals []float64) wire.Frame {
			f := lead
			f.Attrs = append(append([]int(nil), lead.Attrs...), attrs...)
			f.Values = append(append([]float64(nil), lead.Values...), vals...)
			return f
		}
		bad := map[string]wire.Frame{
			"NaN value":      with([]int{last}, []float64{math.NaN()}),
			"Inf value":      with([]int{last}, []float64{math.Inf(1)}),
			"duplicate":      with([]int{last, last}, []float64{row[last], row[last]}),
			"out of range":   with([]int{last + 1}, []float64{20}),
			"negative":       with([]int{-1}, []float64{20}),
			"unsorted":       with([]int{42, 41}, []float64{row[42], row[41]}),
			"missing values": {Step: good.Step, Attrs: []int{1, 9, last}, Values: []float64{row[1], row[9]}},
			"wrong step":     {Step: good.Step + 1},
		}
		before := rep.Answer()
		for name, f := range bad {
			err := rep.Apply(f)
			if err == nil {
				t.Fatalf("step %d: %s frame applied", step, name)
			}
			if name == "NaN value" && !errors.Is(err, gauss.ErrNotFinite) {
				t.Fatalf("NaN frame: err = %v, want gauss.ErrNotFinite", err)
			}
			after := rep.Answer()
			if after.Step != before.Step || !bitsEqual(after.Estimates, before.Estimates) {
				t.Fatalf("step %d: rejected %s frame moved the replica", step, name)
			}
		}
		if err := rep.Apply(good); err != nil {
			t.Fatalf("step %d: valid frame after rejects: %v", step, err)
		}
		if err := ref.Apply(good); err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Answer(), ref.Answer(); got.Step != want.Step || !bitsEqual(got.Estimates, want.Estimates) {
			t.Fatalf("step %d: replica diverged from the reference after rejected frames", step)
		}
	}
}

// beliefBits flattens every clique's belief, mean then Σ. Σ is read off a
// clone, which settles its own copy of whatever covariance transitions the
// replica's model still owes and leaves the replica's debt where it was.
func beliefBits(t *testing.T, r *Replica) []uint64 {
	t.Helper()
	var out []uint64
	for _, c := range r.loop.Sink {
		lg := c.Model().Clone().(*model.LinearGaussian)
		for _, v := range model.MeanOf(lg) {
			out = append(out, math.Float64bits(v))
		}
		cov := lg.Cov()
		for i := 0; i < cov.Rows(); i++ {
			for _, v := range cov.Row(i) {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// TestApplyObservedRejectKeepsTheDebt: a replica's models owe their
// covariance transitions until a partial report reads Σ. A frame refused
// between two accepted ones — wrong step, a NaN inside a full-width report,
// a duplicate attribute — must leave mean, Σ and that debt where they were:
// after every accepted frame the replica is bitwise a twin that never saw
// the refused ones, through suppressed runs, partial reports and heartbeats.
func TestApplyObservedRejectKeepsTheDebt(t *testing.T) {
	cfg, rows := chainConfig(t, trace.GenerateLab, 3, 2, 80)
	cfg.HeartbeatEvery = 9
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st ApplyStats
	partial := 0
	for step, row := range rows {
		good, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range map[string]wire.Frame{
			"wrong step": {Step: good.Step + 1, Attrs: []int{0, 1}, Values: []float64{row[0], row[1]}},
			"NaN":        {Step: good.Step, Attrs: []int{0, 1}, Values: []float64{row[0], math.NaN()}},
			"duplicate":  {Step: good.Step, Attrs: []int{0, 1, 1}, Values: []float64{row[0], row[1], row[1]}},
		} {
			if err := rep.ApplyObserved(f, &st); err == nil {
				t.Fatalf("step %d: %s frame applied", step, name)
			}
		}
		if err := rep.ApplyObserved(good, &st); err != nil {
			t.Fatalf("step %d: valid frame after rejects: %v", step, err)
		}
		if err := twin.Apply(good); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(beliefBits(t, rep), beliefBits(t, twin)) {
			t.Fatalf("step %d: refused frames left the replica's beliefs unlike its twin's", step)
		}
		if n := len(good.Attrs); n > 0 && good.Special != wire.KindHeartbeat {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no ordinary report was applied — Σ was never read")
	}
}

// refusing is a LinearGaussian whose Condition refuses a non-empty report
// while armed: a refusal no frame validation can foresee, as a degenerate
// pivot (gauss.ErrDegenerate) would be.
type refusing struct {
	*model.LinearGaussian
	armed bool
}

var errPlanted = errors.New("planted refusal")

func (m *refusing) Condition(idx []int, vals []float64) error {
	if m.armed && len(idx) > 0 {
		return errPlanted
	}
	return m.LinearGaussian.Condition(idx, vals)
}

// TestApplyFailsClosed: when a clique's model refuses a frame that passed
// validation, the cliques before it have already moved, so the replica no
// longer knows its source's state. It must say so for that frame, for a
// retry of it — which, once the refusal has passed, would otherwise predict
// the earlier cliques a second time — and for the next frame, and neither
// its counts nor its beliefs may move after the refusal.
func TestApplyFailsClosed(t *testing.T) {
	cfg, rows := chainConfig(t, trace.GenerateLab, 3, 2, 40)
	cfg.HeartbeatEvery = 5
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(rep.loop.Sink) - 1
	k := rep.loop.Sink[last]
	planted := &refusing{LinearGaussian: k.Model().(*model.LinearGaussian)}
	if rep.loop.Sink[last], err = protocol.New(planted, k.Members(), k.Eps()); err != nil {
		t.Fatal(err)
	}
	var frames []wire.Frame
	for _, row := range rows {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// The failing frame is the second heartbeat: every clique reports, the
	// last one last.
	fail := 2*cfg.HeartbeatEvery - 1
	if frames[fail].Special != wire.KindHeartbeat {
		t.Fatalf("frame %d is no heartbeat — test premise broken", fail)
	}
	for _, f := range frames[:fail] {
		if err := rep.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	frames0, values0, heartbeats0 := rep.Counts()
	planted.armed = true
	var st ApplyStats
	first := rep.ApplyObserved(frames[fail], &st)
	if !errors.Is(first, errPlanted) {
		t.Fatalf("the planted refusal surfaced as %v", first)
	}
	planted.armed = false
	beliefs := beliefBits(t, rep)
	for name, f := range map[string]wire.Frame{"retry": frames[fail], "next": frames[fail+1]} {
		if err := rep.ApplyObserved(f, &st); err != first {
			t.Fatalf("%s frame: err %v, want the first refusal %v", name, err, first)
		}
		if frames, values, heartbeats := rep.Counts(); frames != frames0 || values != values0 || heartbeats != heartbeats0 {
			t.Fatalf("%s frame: counts moved to %d/%d/%d from %d/%d/%d", name, frames, values, heartbeats, frames0, values0, heartbeats0)
		}
		if !reflect.DeepEqual(beliefBits(t, rep), beliefs) {
			t.Fatalf("%s frame moved the failed replica's beliefs", name)
		}
	}
}

// TestApplyAcceptsWireOrder: the codec lists attributes in ascending global
// order, Collect in clique-major order; with interleaved cliques the two
// differ and both must apply, to the same answer.
func TestApplyAcceptsWireOrder(t *testing.T) {
	cfg, rows := testConfig(t)
	// Interleave: {0,2} {1,3} {4,6} {5,7} {8,10} {9}.
	cfg.Partition = &cliques.Partition{Cliques: []cliques.Clique{
		{Members: []int{0, 2}}, {Members: []int{1, 3}}, {Members: []int{4, 6}},
		{Members: []int{5, 7}}, {Members: []int{8, 10}}, {Members: []int{9}},
	}}
	cfg.HeartbeatEvery = 3 // heartbeats carry every attribute
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wired, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reordered := 0
	for _, row := range rows[:30] {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := wire.Encode(f, src.Resolution())
		if err != nil {
			t.Fatal(err)
		}
		g, err := wire.Decode(buf, src.Resolution())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f.Attrs, g.Attrs) {
			reordered++
		}
		if err := direct.Apply(f); err != nil {
			t.Fatal(err)
		}
		if err := wired.Apply(g); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(direct.Answer().Estimates, wired.Answer().Estimates) {
			t.Fatal("clique-major and wire-order frames led to different answers")
		}
	}
	if reordered == 0 {
		t.Fatal("the codec never reordered a frame — the test exercised one order only")
	}
}

// TestCollectRejectsNonFiniteReadingBeforeMoving: a NaN or Inf reading is a
// typed error out of Collect, on ordinary and heartbeat epochs alike, and
// the source carries on as if the epoch had never been offered — same step
// counter, same heartbeat schedule, same models — so the sink, which never
// got a frame for it, stays in step.
func TestCollectRejectsNonFiniteReadingBeforeMoving(t *testing.T) {
	cfg, rows := testConfig(t)
	cfg.HeartbeatEvery = 3
	got, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heartbeats := 0
	for step, row := range rows[:40] {
		bad := append([]float64(nil), row...)
		bad[len(bad)-1] = math.NaN() // last clique
		if step%2 == 1 {
			bad[len(bad)-1] = math.Inf(1)
		}
		if _, err := got.Collect(bad); !errors.Is(err, gauss.ErrNotFinite) {
			t.Fatalf("step %d: err = %v, want gauss.ErrNotFinite", step, err)
		}
		f, err := got.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if f.Step != want.Step || f.Special != want.Special ||
			!reflect.DeepEqual(f.Attrs, want.Attrs) || !bitsEqual(f.Values, want.Values) {
			t.Fatalf("step %d: a rejected epoch changed the next frame: %+v vs %+v", step, f, want)
		}
		if f.Special == wire.KindHeartbeat {
			heartbeats++
		}
	}
	if heartbeats == 0 {
		t.Fatal("no heartbeat epoch was exercised")
	}
}
