package sinkd

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"ken/internal/alloctest"
	"ken/internal/deploy"
	"ken/internal/stream"
	"ken/internal/wire"
)

// TestAllocBudgetSinkdApply pins the daemon's per-frame ingest path. The
// apply — decoding the queued body into the tenant's warmed frame, replica
// conditioning, daemon counters and the fold into the tenant's SLO window —
// allocates nothing for reporting frames (every attribute reported every
// step), whether applyFrame is called alone or by the applier loop draining
// a queue. The reader allocates one body per frame and nothing else, to the
// end of the stream, into a full queue (the body a shed reports) or for a
// tenant the applier has already failed. None of it makes a registry lookup:
// the daemon's handles are resolved in New.
func TestAllocBudgetSinkdApply(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	d := New(Config{})
	defer d.Close()
	const runs, perRun = 100, 4
	dep, err := deploy.Build(deploy.Params{Dataset: "garden", Seed: 1, TestSteps: runs + 2 + (runs+1)*perRun})
	if err != nil {
		t.Fatal(err)
	}
	replica, err := stream.NewReplica(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{name: "alloc", win: d.monitor.NewWindow(), frames: make(chan queued, 4)}

	attrs := make([]int, len(dep.Test[0]))
	for i := range attrs {
		attrs[i] = i
	}
	bodies := make([][]byte, len(dep.Test))
	for i, row := range dep.Test {
		f := wire.Frame{Step: uint64(i), Attrs: attrs, Values: row}
		if bodies[i], err = wire.Encode(f, replica.Resolution()); err != nil {
			t.Fatal(err)
		}
	}
	// The first frame sizes the tenant's decode target; every later one of
	// the same shape must fit it.
	if err := d.applyFrame(tn, replica, queued{body: bodies[0]}); err != nil {
		t.Fatal(err)
	}
	reg := d.cfg.Obs.Registry()
	next := 1
	if got, lookups := alloctest.Run(runs, reg, func() {
		if err := d.applyFrame(tn, replica, queued{body: bodies[next]}); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 || lookups != 0 {
		t.Errorf("applyFrame: %v allocs/op, %d registry lookups (budget 0 and 0)", got, lookups)
	}
	if len(tn.frame.Attrs) != len(attrs) {
		t.Fatalf("decoded frame carries %d of %d values — budget premise broken", len(tn.frame.Attrs), len(attrs))
	}
	if w := tn.win.Status(tn.name, string(StateStreaming)).Window; w.TotalFrames != runs+2 || w.Values != int64((runs+2)*len(attrs)) {
		t.Fatalf("window counted %d frames and %d values, want %d and %d — applies not reaching the window",
			w.TotalFrames, w.Values, runs+2, (runs+2)*len(attrs))
	}

	// The applier loop runs until its queue closes, so each run hands it a
	// fresh queue and done channel: an empty queue costs exactly those
	// three allocations, a queue of perRun frames not one more.
	drain := func(frames int) float64 {
		got, lookups := alloctest.Run(runs, reg, func() {
			q := make(chan queued, perRun)
			for range frames {
				q <- queued{body: bodies[next]}
				next++
			}
			close(q)
			tn.frames = q
			d.wg.Add(1)
			d.applyLoop(nil, tn, replica, make(chan struct{}))
		})
		if lookups != 0 {
			t.Errorf("applyLoop over %d frames: %d registry lookups, budget 0", frames, lookups)
		}
		return got
	}
	if empty, full := drain(0), drain(perRun); empty != 3 || full != empty {
		t.Errorf("applyLoop: %v allocs/op on an empty queue (budget 3), %v on %d frames (budget the same)", empty, full, perRun)
	}
	if st, detail := tn.snapshot(); st.terminal() || replica.Answer().Step != next {
		t.Fatalf("applier left the tenant %s (%s) at step %d, want %d — budget premise broken", st, detail, replica.Answer().Step, next)
	}

	var raw bytes.Buffer
	var buf []byte
	for range perRun {
		if buf, err = stream.WriteFrameBuf(&raw, wire.Frame{Attrs: attrs, Values: dep.Test[0]}, replica.Resolution(), buf); err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(raw.Bytes())
	br := bufio.NewReaderSize(rd, readBufBytes)
	failed := &tenant{state: StateFailed}
	for _, tc := range []struct {
		name   string
		tn     *tenant
		queue  int
		budget float64
		end    error
	}{
		{"to the end of the stream", tn, perRun, perRun, io.EOF},
		{"into a full queue", tn, 0, 1, nil},
		{"for a failed tenant", failed, perRun, 1, nil},
	} {
		q := make(chan queued, tc.queue)
		tc.tn.frames = q
		if got, lookups := alloctest.Run(runs, reg, func() {
			rd.Reset(raw.Bytes())
			br.Reset(rd)
			if _, err := d.readLoop(br, tc.tn); err != tc.end {
				t.Fatalf("readLoop %s: %v, want %v", tc.name, err, tc.end)
			}
			for len(q) > 0 {
				<-q
			}
		}); got != tc.budget || lookups != 0 {
			t.Errorf("readLoop %s: %v allocs/op (budget %v), %d registry lookups (budget 0)", tc.name, got, tc.budget, lookups)
		}
	}
}
