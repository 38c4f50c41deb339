// Command kenaudit replays a JSONL protocol trace (written by the
// pipeline's -trace-out flag) and verifies the Ken invariants offline:
// the ε-guarantee (drops repaired by ARQ retransmission excuse nothing),
// silent replica divergence, byte accounting on both the protocol and
// radio ledgers, and retransmission accounting. It also rolls up
// per-node / per-clique / per-link communication and a first-order radio
// energy estimate.
//
// The trace may be a flat JSONL file or a segmented, hash-chained trace
// store directory (written by -trace-out with a directory path). Store
// directories unlock -verify-chain — cryptographic tamper detection
// before the audit — and indexed -scope/-epochs windows that seek to the
// relevant segments instead of scanning the whole trace.
//
// Usage:
//
//	kenaudit -trace run.jsonl                 # markdown summary to stdout
//	kenaudit -trace run.jsonl -json report.json
//	kenaudit -trace run.jsonl -strict         # exit 1 on any violation
//	kenaudit -trace - < run.jsonl             # read stdin
//	kenaudit -trace runs/ -verify-chain       # tamper check, then audit
//	kenaudit -trace runs/ -scope sim/net -epochs 100:200
//
// The report is deterministic: auditing a kenbench -parallel trace yields
// a byte-identical report to its sequential twin.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ken/internal/audit"
	"ken/internal/obs"
	"ken/internal/tracestore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// inWindow reports whether an event passes the -scope/-epochs window f.
// Its scope and step tests are the ones the store index plans a seek with,
// so the segments the index selects hold every event admitted here.
func inWindow(f tracestore.Filter, e *obs.Event) bool {
	// A windowed audit sees only a slice of each run, so the run_end
	// declarations (total steps/values/bytes, ε-miss reconciliation)
	// cannot hold over it; auditing the window against them would only
	// manufacture false violations.
	return f.MatchScope(e.Scope) && f.MatchStep(e.Step) && !(f.HasSteps && e.Type == obs.EvRunEnd)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kenaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tracePath := fs.String("trace", "", "trace to audit: JSONL file, segmented store directory, or \"-\" for stdin")
	jsonOut := fs.String("json", "", "also write the machine-readable JSON report to this file (\"-\" for stdout)")
	noMD := fs.Bool("q", false, "suppress the markdown summary")
	strict := fs.Bool("strict", false, "exit nonzero when any invariant is violated")
	verify := fs.Bool("verify-chain", false, "verify the store's hash chain before auditing (directory traces only); any bit flip, reorder or truncation exits 1 naming the segment")
	scope := fs.String("scope", "", "audit only this scope and its sub-scopes (\"sim\" matches \"sim/net\")")
	epochsFlag := fs.String("epochs", "", "audit only epochs with step in this inclusive lo:hi window (either bound may be empty); run_end totals are not checked against a window")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *tracePath == "" {
		fmt.Fprintln(stderr, "kenaudit: -trace is required")
		fs.Usage()
		return 2
	}
	win := tracestore.Filter{Scope: *scope}
	if *epochsFlag != "" {
		lo, hi, err := parseEpochs(*epochsFlag)
		if err != nil {
			fmt.Fprintf(stderr, "kenaudit: %v\n", err)
			return 2
		}
		win.HasSteps, win.MinStep, win.MaxStep = true, lo, hi
	}

	isDir := *tracePath != "-" && isDirTrace(*tracePath)
	if *verify && !isDir {
		fmt.Fprintln(stderr, "kenaudit: -verify-chain needs a segmented trace store directory")
		return 2
	}
	if *verify {
		info, err := tracestore.VerifyChain(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "kenaudit: %v\n", err)
			var ce *tracestore.ChainError
			if errors.As(err, &ce) {
				return 1
			}
			return 2
		}
		fmt.Fprintf(stderr, "kenaudit: chain OK: %d segments, %d events, head %s\n",
			info.Segments, info.Events, info.Head)
	}

	var a audit.Auditor
	err := eachEvent(*tracePath, isDir, stdin, win, func(e obs.Event) error {
		if inWindow(win, &e) {
			a.Feed(e)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "kenaudit: %v\n", err)
		return 2
	}
	rep := a.Finish()

	if rep.Events == 0 {
		if win.Scope != "" || win.HasSteps {
			fmt.Fprintln(stderr, "kenaudit: no events matched the -scope/-epochs window")
		} else {
			fmt.Fprintln(stderr, "kenaudit: no events in trace")
		}
	}

	if *jsonOut != "" {
		out := stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(stderr, "kenaudit: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintf(stderr, "kenaudit: %v\n", err)
			return 2
		}
	}
	if !*noMD && rep.Events > 0 {
		if err := rep.WriteMarkdown(stdout); err != nil {
			fmt.Fprintf(stderr, "kenaudit: %v\n", err)
			return 2
		}
	}

	if !rep.Clean() {
		for _, v := range rep.Violations {
			fmt.Fprintf(stderr, "kenaudit: VIOLATION %s\n", v.String())
		}
		if *strict {
			return 1
		}
	}
	return 0
}

// isDirTrace reports whether the path names a trace store directory.
func isDirTrace(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// parseEpochs parses "lo:hi" with either bound optional.
func parseEpochs(s string) (lo, hi int64, err error) {
	loS, hiS, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-epochs wants lo:hi, got %q", s)
	}
	lo, hi = 0, int64(1)<<62
	if loS != "" {
		if lo, err = strconv.ParseInt(loS, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("-epochs lower bound %q: %v", loS, err)
		}
	}
	if hiS != "" {
		if hi, err = strconv.ParseInt(hiS, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("-epochs upper bound %q: %v", hiS, err)
		}
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("-epochs window %q is empty (lo > hi)", s)
	}
	return lo, hi, nil
}

// eachEvent hands fn the events of a flat file, stdin ("-") or store
// directory in trace order. For a store the per-segment index turns the
// window into a seek: segments, and scope runs within them, that cannot
// hold a matching event are never read. The caller still applies the
// window event by event, since the index only rules segments out.
func eachEvent(path string, isDir bool, stdin io.Reader, win tracestore.Filter, fn func(obs.Event) error) error {
	if !isDir {
		in := stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		return obs.StreamEvents(in, fn)
	}
	st, err := tracestore.Open(path)
	if err != nil {
		return err
	}
	n := 0
	return st.ScanSelection(st.Select(win), func(line []byte) error {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("decoding trace event %d: %w", n, err)
		}
		n++
		return fn(e)
	})
}
