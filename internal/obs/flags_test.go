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

// TestSetupRefusesStdoutTrace: "-" is not a trace sink — the binaries print
// their tables on stdout — so Setup refuses it with one line naming the flag
// instead of creating a file called "-".
func TestSetupRefusesStdoutTrace(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	ob, cleanup, err := CmdFlags{TraceOut: "-"}.Setup()
	if err == nil {
		cleanup()
		t.Fatalf("Setup accepted -trace-out - (observer %v)", ob)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "-trace-out -: ") || !strings.Contains(msg, "stdout") || strings.Contains(msg, "\n") {
		t.Fatalf("error %q: want one line naming -trace-out and stdout", msg)
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Fatalf("a file named - was left behind (stat: %v)", err)
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
	stop := sealOnSignal(NewTracerSink(w), w.Seal)
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

// TestTracerSinkMatchesFlatEncoding writes one event sequence both ways:
// the store's event lines must be the flat trace's lines after its header,
// byte for byte, and decode with their scope and span context intact.
func TestTracerSinkMatchesFlatEncoding(t *testing.T) {
	emit := func(tr *Tracer) {
		scoped := tr.withScope("cell")
		sp := scoped.StartEpoch(Event{Step: 3, Clique: 0, Node: -1})
		sp.Emit(Event{Type: EvReport, Step: 3, Clique: 0, Node: 2, Attrs: []int{1}, Values: []float64{4.5}})
		sp.EndEpoch(Event{Step: 3, Clique: 0, Node: -1, N: 1})
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var flat bytes.Buffer
	emit(NewTracer(&flat))
	dir := t.TempDir()
	w, err := tracestore.Create(dir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracerSink(w)
	emit(tr)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stored bytes.Buffer
	if err := st.ScanSelection(st.Select(tracestore.Filter{}), func(line []byte) error {
		stored.Write(line)
		stored.WriteByte('\n')
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, flatEvents, _ := bytes.Cut(flat.Bytes(), []byte{'\n'})
	if !bytes.Equal(stored.Bytes(), flatEvents) {
		t.Fatalf("store lines differ from the flat trace's:\nstore:\n%s\nflat:\n%s", stored.Bytes(), flatEvents)
	}
	got, err := ReadEvents(&stored)
	if err != nil {
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
