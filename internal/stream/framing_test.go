package stream

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"ken/internal/alloctest"
	"ken/internal/wire"
)

// countingWriter records how many Write calls carried how many bytes.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestOneWritePerFrame pins the send side: a frame — report or session —
// leaves in exactly one Write, prefix and body together, and the buffered
// form emits the bytes the plain form does.
func TestOneWritePerFrame(t *testing.T) {
	f := wire.Frame{Step: 3, Attrs: []int{9, 1, 4}, Values: []float64{1.5, -2, 0.25}}
	var plain countingWriter
	if err := WriteFrame(&plain, f, 0.01); err != nil {
		t.Fatal(err)
	}
	if plain.writes != 1 {
		t.Fatalf("WriteFrame issued %d writes, want 1", plain.writes)
	}
	body, err := wire.Encode(f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{0, 0, 0, byte(len(body))}, body...)
	if !bytes.Equal(plain.buf.Bytes(), want) {
		t.Fatalf("WriteFrame wrote %x, want %x", plain.buf.Bytes(), want)
	}

	var buffered countingWriter
	var buf []byte
	for i := 0; i < 3; i++ {
		if buf, err = WriteFrameBuf(&buffered, f, 0.01, buf); err != nil {
			t.Fatal(err)
		}
	}
	if buffered.writes != 3 {
		t.Fatalf("3 WriteFrameBuf calls issued %d writes, want 3", buffered.writes)
	}
	if !bytes.Equal(buffered.buf.Bytes(), bytes.Repeat(want, 3)) {
		t.Fatalf("WriteFrameBuf wrote %x, want %x three times", buffered.buf.Bytes(), want)
	}
	// A frame wire refuses writes nothing.
	if _, err := WriteFrameBuf(&buffered, wire.Frame{Attrs: []int{-1}, Values: []float64{0}}, 0.01, buf); err == nil || buffered.writes != 3 {
		t.Fatalf("refused frame: err %v after %d writes, want an error and still 3", err, buffered.writes)
	}

	var session countingWriter
	if err := WriteReject(&session, wire.Reject{Code: wire.RejectSlowTenant, Reason: "shed"}); err != nil {
		t.Fatal(err)
	}
	if session.writes != 1 {
		t.Fatalf("WriteReject issued %d writes, want 1", session.writes)
	}
	if s, err := ReadSession(&session.buf); err != nil || s.Reject == nil || s.Reject.Reason != "shed" {
		t.Fatalf("session frame did not survive the single write: %+v, %v", s, err)
	}
}

// TestReadBody: bodies come back whole, exactly sized and undecoded; the
// stream's ends and the size limit surface as ReadFrameBuf's do.
func TestReadBody(t *testing.T) {
	var stream bytes.Buffer
	frames := []wire.Frame{
		{Step: 0},
		{Step: 1, Attrs: []int{0, 2}, Values: []float64{1, 2}},
		{Step: 2, Special: wire.KindHeartbeat, Attrs: []int{5}, Values: []float64{-7}},
	}
	for _, f := range frames {
		if err := WriteFrame(&stream, f, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	// A 16-byte reader makes bodies straddle refills.
	br := bufio.NewReaderSize(&stream, 16)
	for i, f := range frames {
		body, err := ReadBody(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want, _ := wire.Encode(f, 0.01)
		if !bytes.Equal(body, want) || cap(body) != len(body) {
			t.Fatalf("frame %d: body %x (cap %d), want %x exactly", i, body, cap(body), want)
		}
	}
	if _, err := ReadBody(br); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}

	for name, in := range map[string][]byte{
		"partial header": {0, 0},
		"truncated body": {0, 0, 0, 10, 1, 2},
	} {
		_, err := ReadBody(bufio.NewReader(bytes.NewReader(in)))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: got %v, want an unexpected-EOF error", name, err)
		}
	}
	// An oversized prefix is refused before its body is allocated or read.
	huge := bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}))
	if _, err := ReadBody(huge); err == nil || err == io.EOF {
		t.Fatalf("oversized frame: got %v, want a size error", err)
	}
}

// TestAllocBudgetFraming pins the framing layer's steady state: a warmed
// WriteFrameBuf allocates nothing, ReadBody exactly the body it returns.
func TestAllocBudgetFraming(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	f := wire.Frame{Step: 1 << 30, Attrs: []int{0, 1, 7, 30}, Values: []float64{20.5, 21, -3, 0}}
	buf, err := WriteFrameBuf(io.Discard, f, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if buf, err = WriteFrameBuf(io.Discard, f, 0.01, buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("warmed WriteFrameBuf: %v allocs/op, budget 0", got)
	}

	const runs = 100
	var stream bytes.Buffer
	for i := 0; i <= runs; i++ {
		stream.Write(buf)
	}
	br := bufio.NewReaderSize(&stream, 4096)
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := ReadBody(br); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("ReadBody: %v allocs/op, budget 1 (the body)", got)
	}
}
