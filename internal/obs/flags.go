package obs

import (
	"errors"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ken/internal/tracestore"
)

// CmdFlags is the uniform observability flag block of the cmd binaries:
// -obs-addr, -trace-out, -trace-timestamps, -trace-segment-events,
// -trace-segment-bytes, -log-level and -log-json. It replaces the
// per-binary copies of the same setup so every binary can produce
// auditable traces the same way.
//
//	var of obs.CmdFlags
//	of.Register(flag.CommandLine)
//	flag.Parse()
//	ob, done, err := of.Setup()
//	// ... run ...
//	done()
type CmdFlags struct {
	Addr          string
	TraceOut      string
	Timestamps    bool
	SegmentEvents int
	SegmentBytes  int64
	Log           LogFlags
}

// Register installs the shared observability flags on the flag set.
func (c *CmdFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run (empty = off)")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write protocol event JSONL (epoch spans, reports, applies) for kenaudit; a directory path (trailing slash or existing directory) selects the segmented, hash-chained trace store")
	fs.BoolVar(&c.Timestamps, "trace-timestamps", false, "stamp trace events with wall-clock time (enables kenaudit latency histograms, breaks byte-comparable traces)")
	fs.IntVar(&c.SegmentEvents, "trace-segment-events", 0, "segmented store: roll the segment after this many events (0 = default)")
	fs.Int64Var(&c.SegmentBytes, "trace-segment-bytes", 0, "segmented store: roll the segment after this many bytes (0 = default)")
	c.Log.Register(fs)
}

// traceIsDir reports whether -trace-out selects the segmented store: a
// trailing separator always does, and so does an existing directory.
func (c CmdFlags) traceIsDir() bool {
	if strings.HasSuffix(c.TraceOut, "/") || strings.HasSuffix(c.TraceOut, string(os.PathSeparator)) {
		return true
	}
	fi, err := os.Stat(c.TraceOut)
	return err == nil && fi.IsDir()
}

// Setup configures logging, assembles the observer (registry always;
// tracer when -trace-out is set) and starts the HTTP endpoint when
// -obs-addr is set. The returned cleanup flushes and closes the trace
// sink; call it once the run is over (it is safe to call on the error
// path too). Errors are returned unlogged so the binary owns its exit.
//
// While a trace sink is open, SIGINT/SIGTERM flush it (and seal the open
// segment, in store mode) so an interrupted run still leaves an
// auditable trace; the handler does not exit — the binary's own context
// cancellation drives shutdown, and cleanup unregisters the handler.
func (c CmdFlags) Setup() (*Observer, func(), error) {
	if _, err := c.Log.Setup(nil); err != nil {
		return nil, nil, err
	}
	ob := &Observer{Reg: NewRegistry()}
	cleanup := func() {}
	if c.TraceOut != "" {
		sink, seal, closeSink, err := c.openTraceSink()
		if err != nil {
			return nil, nil, err
		}
		ob.Trace = NewTracerSink(sink)
		if c.Timestamps {
			ob.Trace.StampWallClock()
		}
		stop := sealOnSignal(ob.Trace, seal)
		cleanup = func() {
			stop()
			if err := ob.Trace.Flush(); err != nil {
				slog.Warn("trace flush failed", "err", err)
			}
			if err := closeSink(); err != nil {
				slog.Warn("trace close failed", "err", err)
			}
			slog.Info("protocol trace written", "path", c.TraceOut, "events", ob.Trace.Events())
		}
	}
	if err := StartEndpoint(c.Addr, ob.Reg); err != nil {
		cleanup()
		return nil, nil, err
	}
	return ob, cleanup, nil
}

// openTraceSink opens what -trace-out names: a segmented store for a
// directory path, else a flat file. seal is the store's Seal (nil for a
// file); closeSink seals and closes the store, or closes the file.
func (c CmdFlags) openTraceSink() (sink LineSink, seal, closeSink func() error, err error) {
	if c.TraceOut == "-" {
		return nil, nil, nil, errors.New("-trace-out -: stdout is not a trace sink (the binaries print their tables there); name a file or a directory")
	}
	if c.traceIsDir() {
		w, err := tracestore.Create(c.TraceOut, tracestore.Options{
			MaxEvents: c.SegmentEvents, MaxBytes: c.SegmentBytes,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		return w, w.Seal, w.Close, nil
	}
	f, err := os.Create(c.TraceOut)
	if err != nil {
		return nil, nil, nil, err
	}
	return newFlatSink(f), nil, f.Close, nil
}

// sealOnSignal installs a handler that flushes the tracer — and calls
// seal, the segmented store's Seal (nil for a flat file) — on
// SIGINT/SIGTERM, so an interrupted run still leaves an auditable trace. The tracer keeps
// working after a seal (the next event opens the successor segment), so
// binaries with their own signal.NotifyContext drain gracefully and
// re-flush on exit; a second signal force-exits with status 130 after a
// final flush+seal, covering binaries without one. The returned stop
// function unregisters the handler; it is idempotent.
func sealOnSignal(t *Tracer, seal func() error) func() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	finished := make(chan struct{})
	flushSeal := func() {
		if err := t.Flush(); err != nil {
			slog.Warn("trace flush on signal failed", "err", err)
		}
		if seal != nil {
			if err := seal(); err != nil {
				slog.Warn("trace seal on signal failed", "err", err)
			}
		}
	}
	go func() {
		defer close(finished)
		seen := 0
		for {
			select {
			case <-sig:
				seen++
				flushSeal()
				if seen == 1 {
					slog.Info("trace flushed on signal; interrupt again to force exit", "sealed", seal != nil)
					continue
				}
				os.Exit(130)
			case <-done:
				return
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		signal.Stop(sig)
		close(done)
		<-finished
	}
}
