package obs

import (
	"bytes"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ken/internal/tracestore"
)

// setupWith runs Setup with the given -trace-out, returning the observer
// and cleanup.
func setupWith(t *testing.T, traceOut string, extra ...string) (*Observer, func()) {
	t.Helper()
	var c CmdFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	args := append([]string{"-trace-out", traceOut}, extra...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ob, cleanup, err := c.Setup()
	if err != nil {
		t.Fatal(err)
	}
	return ob, cleanup
}

func TestSetupFlatFileTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ob, cleanup := setupWith(t, path)
	ob.Trace.Emit(Event{Type: EvReport, Clique: -1, Node: 1, Scope: "s"})
	cleanup()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != EvReport {
		t.Fatalf("read %d events, want the 1 emitted", len(evs))
	}
}

func TestSetupSegmentedTraceByTrailingSlash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace") + "/"
	ob, cleanup := setupWith(t, dir, "-trace-segment-events", "3")
	for i := 0; i < 10; i++ {
		ob.Trace.Emit(Event{Type: EvReport, Step: int64(i), Clique: -1, Node: 1, Scope: "s"})
	}
	cleanup()
	info, err := tracestore.VerifyChain(dir)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if info.Events != 10 || info.Segments != 4 {
		t.Fatalf("chain info = %+v, want 10 events over 4 segments", info)
	}
}

func TestSetupSegmentedTraceByExistingDir(t *testing.T) {
	dir := t.TempDir() // exists, no trailing slash
	ob, cleanup := setupWith(t, dir)
	ob.Trace.Emit(Event{Type: EvReport, Clique: -1, Node: 1, Scope: "s"})
	cleanup()
	if _, err := tracestore.VerifyChain(dir); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

// TestSignalSealsSegmentedTrace delivers a real SIGINT to the process
// and asserts the open segment gets flushed and sealed — the "interrupted
// runs leave auditable traces" contract. The handler does not exit on the
// first signal, so the test keeps running.
func TestSignalSealsSegmentedTrace(t *testing.T) {
	dir := t.TempDir()
	ob, cleanup := setupWith(t, dir)
	defer cleanup()
	for i := 0; i < 5; i++ {
		ob.Trace.Emit(Event{Type: EvReport, Step: int64(i), Clique: -1, Node: 1, Scope: "s"})
	}
	// Nothing sealed yet: the chain must fail before the signal.
	if _, err := tracestore.VerifyChain(dir); err == nil {
		t.Fatal("unsealed store passed verification before signal")
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := tracestore.VerifyChain(dir)
		if err == nil {
			if info.Events != 5 {
				t.Fatalf("sealed store holds %d events, want 5", info.Events)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store still unverifiable 5s after SIGINT: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSignalFlushesFlatTrace is the same contract for the flat-file
// tracer: after SIGINT the events must be on disk even though the
// process keeps running.
func TestSignalFlushesFlatTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ob, cleanup := setupWith(t, path)
	defer cleanup()
	ob.Trace.Emit(Event{Type: EvReport, Clique: -1, Node: 1, Scope: "s"})
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := ReadEvents(f)
		f.Close()
		if err == nil && len(evs) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace still unflushed 5s after SIGINT (events=%d err=%v)", len(evs), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSegmentedTraceResumesAfterSignalSeal: events emitted after a
// signal-triggered seal land in a successor segment and the final chain
// still verifies end to end.
func TestSegmentedTraceResumesAfterSignalSeal(t *testing.T) {
	dir := t.TempDir()
	ob, cleanup := setupWith(t, dir)
	ob.Trace.Emit(Event{Type: EvReport, Step: 1, Clique: -1, Node: 1, Scope: "s"})
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tracestore.VerifyChain(dir); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store not sealed after SIGINT")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ob.Trace.Emit(Event{Type: EvReport, Step: 2, Clique: -1, Node: 1, Scope: "s"})
	cleanup()
	info, err := tracestore.VerifyChain(dir)
	if err != nil {
		t.Fatalf("VerifyChain after resume: %v", err)
	}
	if info.Segments != 2 || info.Events != 2 {
		t.Fatalf("chain info = %+v, want 2 segments / 2 events", info)
	}
}

// lockedBuffer is a log destination the signal handler's goroutine can
// write while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSignalSealFailureIsLogged: a store whose rotation failed cannot seal
// any more. SIGINT must still be handled, and the seal's failure logged.
func TestSignalSealFailureIsLogged(t *testing.T) {
	dir := t.TempDir()
	w, err := tracestore.Create(dir, tracestore.Options{MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Segment 1's path is taken, so the rotation into it fails and the
	// error sticks.
	if err := os.Mkdir(tracestore.SegmentPath(dir, 1), 0o777); err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"scope":"s"}`)
	if err := w.WriteEventLine("s", 0, line); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEventLine("s", 1, line); err == nil {
		t.Fatal("rotation into an occupied segment path succeeded")
	}
	var logs lockedBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	defer slog.SetDefault(prev)
	stop := sealOnSignal(NewTracerSink(w), w)
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), "trace seal on signal failed") {
		if time.Now().After(deadline) {
			t.Fatalf("no seal failure logged 5s after SIGINT; log:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTracerSinkMatchesFlatEncoding(t *testing.T) {
	dir := t.TempDir()
	w, err := tracestore.Create(dir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracerSink(w)
	scoped := tr.withScope("cell")
	sp := scoped.StartEpoch(Event{Step: 3, Clique: 0, Node: -1})
	sp.Emit(Event{Type: EvReport, Step: 3, Clique: 0, Node: 2, Attrs: []int{1}, Values: []float64{4.5}})
	sp.EndEpoch(Event{Step: 3, Clique: 0, Node: -1, N: 1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := st.Scan(func(line []byte) error {
		return StreamEvents(bytes.NewReader(line), func(e Event) error {
			got = append(got, e)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d events, want 3", len(got))
	}
	for i, e := range got {
		if e.Scope != "cell" {
			t.Fatalf("event %d lost its scope: %+v", i, e)
		}
	}
	if got[0].Type != EvEpochStart || got[1].Type != EvReport || got[2].Type != EvEpochEnd {
		t.Fatalf("event order/type wrong: %v %v %v", got[0].Type, got[1].Type, got[2].Type)
	}
	if got[1].Epoch != got[0].Span || got[1].Parent != 0 && got[1].Parent != got[0].Span {
		t.Fatalf("span context not preserved: %+v", got[1])
	}
	if tr.Events() != 3 {
		t.Fatalf("Events() = %d, want 3", tr.Events())
	}
}
