package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"testing"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/trace"
	"ken/internal/wire"
)

// testConfig builds a shared endpoint config over garden data and returns
// it with the test rows.
func testConfig(t *testing.T) (Config, [][]float64) {
	t.Helper()
	tr, err := trace.GenerateGarden(71, 350)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	p, _ := cliques.Runs(n, 2, cliques.RootFirst) // pairs, then a singleton when n is odd
	cfg := Config{
		Partition: p,
		Train:     rows[:100],
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	}
	return cfg, rows[100:]
}

func TestConfigValidation(t *testing.T) {
	cfg, _ := testConfig(t)
	bad := cfg
	bad.Partition = nil
	if _, err := NewSource(bad); err == nil {
		t.Fatal("expected error for missing partition")
	}
	bad = cfg
	bad.Train = nil
	if _, err := NewReplica(bad); err == nil {
		t.Fatal("expected error for missing training data")
	}
	bad = cfg
	bad.Eps = cfg.Eps[:2]
	if _, err := NewSource(bad); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
	bad = cfg
	bad.Eps = append([]float64(nil), cfg.Eps...)
	bad.Eps[1] = 0
	if _, err := NewSource(bad); err == nil {
		t.Fatal("expected error for a non-positive bound")
	}
}

func TestEndToEndGuaranteeOverBuffer(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.Resolution() != sink.Resolution() {
		t.Fatal("endpoints negotiated different resolutions")
	}
	var pipe bytes.Buffer
	sent := 0
	for step, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		sent += len(f.Attrs)
		if err := WriteFrame(&pipe, f, src.Resolution()); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadFrameBuf(&pipe, sink.Resolution(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(got); err != nil {
			t.Fatal(err)
		}
		est := sink.Answer().Estimates
		for i := range row {
			if d := math.Abs(est[i] - row[i]); d > 0.5+1e-9 {
				t.Fatalf("step %d attr %d: estimate %v vs truth %v exceeds ε", step, i, est[i], row[i])
			}
		}
	}
	if frac := float64(sent) / float64(len(test)*11); frac >= 1 || frac <= 0.05 {
		t.Fatalf("fraction sent %v out of plausible range", frac)
	}
	if frames, _, _ := sink.Counts(); frames != len(test) {
		t.Fatalf("sink applied %d frames, want %d", frames, len(test))
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	cfg, test := testConfig(t)
	test = test[:120]
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serveErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		serveErr <- sink.Serve(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Pump(conn, test, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	ans := sink.Answer()
	if ans.Step != len(test) {
		t.Fatalf("sink applied %d frames, want %d", ans.Step, len(test))
	}
	est := ans.Estimates
	last := test[len(test)-1]
	for i := range last {
		if d := math.Abs(est[i] - last[i]); d > 0.5+1e-9 {
			t.Fatalf("final estimate %d off by %v", i, d)
		}
	}
}

func TestHeartbeatFrames(t *testing.T) {
	cfg, test := testConfig(t)
	cfg.HeartbeatEvery = 10
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	test = test[:50]
	for _, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, hb := sink.Counts(); hb != 5 {
		t.Fatalf("heartbeats = %d, want 5", hb)
	}
}

func TestApplyRejectsOutOfOrderFrames(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := src.Collect(test[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := src.Collect(test[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Apply(f1); err == nil {
		t.Fatal("expected error for skipped frame")
	}
	if err := sink.Apply(f0); err != nil {
		t.Fatal(err)
	}
	bad := wire.Frame{Step: 1, Attrs: []int{99}, Values: []float64{1}}
	if err := sink.Apply(bad); err == nil {
		t.Fatal("expected error for out-of-range attribute")
	}
}

// TestServeCorruptFrameAppliesNothing: a body that fails to decode ends
// Serve with the wire error and moves nothing. Serve decodes in place, so
// a dropped decode error would apply the previous frame's values again
// under the corrupt header's step.
func TestServeCorruptFrameAppliesNothing(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := src.Collect(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(f0.Attrs) == 0 {
		t.Fatal("first frame reports nothing — test premise broken")
	}
	if err := ref.Apply(f0); err != nil {
		t.Fatal(err)
	}
	var pipe bytes.Buffer
	if err := WriteFrame(&pipe, f0, src.Resolution()); err != nil {
		t.Fatal(err)
	}
	// Step 1 claiming one value whose attribute varint never ends.
	if err := writeRaw(&pipe, []byte{wire.Magic, byte(wire.KindReport), 1, 1, 0x80, 0x80}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Serve(&pipe); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("Serve returned %v, want the wire error", err)
	}
	if got, want := fmt.Sprint(sink.Counts()), fmt.Sprint(ref.Counts()); got != want {
		t.Fatalf("counts %s after the corrupt frame, want %s", got, want)
	}
	if got, want := sink.Answer(), ref.Answer(); !reflect.DeepEqual(got, want) {
		t.Fatalf("answer %+v after the corrupt frame, want %+v", got, want)
	}
}

func TestReadFrameBufErrors(t *testing.T) {
	if _, _, err := ReadFrameBuf(bytes.NewReader(nil), 0.01, nil); err != io.EOF {
		t.Fatalf("empty reader: got %v, want io.EOF", err)
	}
	// Partial header.
	if _, _, err := ReadFrameBuf(bytes.NewReader([]byte{0, 0}), 0.01, nil); err == nil || err == io.EOF {
		t.Fatalf("partial header: got %v", err)
	}
	// Oversized frame.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrameBuf(&buf, 0.01, nil); err == nil {
		t.Fatal("expected error for oversized frame")
	}
	// Truncated body.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, _, err := ReadFrameBuf(&buf, 0.01, nil); err == nil || err == io.EOF {
		t.Fatal("expected error for truncated body")
	}
}

func TestSourceCollectValidation(t *testing.T) {
	cfg, _ := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Collect([]float64{1, 2}); err == nil {
		t.Fatal("expected error for truth dim mismatch")
	}
}

// TestReplicaConcurrentEstimates hammers Answer from readers while
// frames apply — the sink serves live queries during ingestion, so this
// must be race-free (run under -race).
func TestReplicaConcurrentEstimates(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				est := sink.Answer().Estimates
				if len(est) != 11 {
					t.Errorf("estimates dim %d", len(est))
					return
				}
				_, _, _ = sink.Counts()
			}
		}
	}()
	for _, row := range test[:150] {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}
