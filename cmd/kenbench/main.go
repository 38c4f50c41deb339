// Command kenbench regenerates the figures of the Ken paper's evaluation
// (ICDE'06 §5) over the synthetic Lab and Garden deployments.
//
// Usage:
//
//	kenbench -fig 9              # one figure (7, 8, 9, 10, 11, 12, 13, 14)
//	kenbench -all                # every figure
//	kenbench -all -test 5000     # paper-scale test window (5000 hours)
//	kenbench -fig 9 -quick       # tiny configuration for smoke tests
//	kenbench -all -parallel 8    # run each figure's cells on 8 workers
//	kenbench -all -metrics-out m.json   # final metrics snapshot alongside results
//	kenbench -all -obs-addr :8080       # live /metrics + pprof while regenerating
//	kenbench -fig 9 -trace-out t.jsonl  # protocol trace for kenaudit
//
// Figures run one at a time (so output streams incrementally), but within a
// figure the independent cells — one scheme/config/row each — execute on the
// engine's worker pool and share generated traces, Monte Carlo evaluators
// and clique partitions through its artifact cache. Results are
// byte-identical at any -parallel width; Ctrl-C cancels mid-figure.
//
// Output is one text table per figure, with the same rows/series the paper
// plots and notes describing the expected shape.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ken/internal/bench"
	"ken/internal/engine"
	"ken/internal/obs"
)

var runners = []struct {
	num int
	fn  bench.Runner
}{
	{7, bench.Fig7},
	{8, bench.Fig8},
	{9, bench.Fig9},
	{10, bench.Fig10},
	{11, bench.Fig11},
	{12, bench.Fig12},
	{13, bench.Fig13},
	{14, bench.Fig14},
	// 15+ are not paper figures: they regenerate the beyond-the-paper
	// extension results, the §5.1 ε / sampling-rate sweeps recorded in
	// EXPERIMENTS.md, and the reliability (loss × ARQ/heartbeat) sweep.
	{15, bench.Extensions},
	{16, bench.Sweeps},
	{17, bench.Faults},
}

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (7-14; 15 = extensions, 16 = sweeps, 17 = reliability)")
	all := flag.Bool("all", false, "regenerate every figure")
	quick := flag.Bool("quick", false, "use the tiny smoke-test configuration")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
	seed := flag.Int64("seed", 1, "trace generation seed")
	train := flag.Int("train", 100, "training steps (hours)")
	test := flag.Int("test", 1500, "test steps (hours); the paper uses 5000")
	parallel := flag.Int("parallel", 0, "worker pool width for experiment cells (0 = GOMAXPROCS, 1 = sequential)")
	metricsOut := flag.String("metrics-out", "", "write a final metrics snapshot JSON to this file ('-' for stdout)")
	var of obs.CmdFlags
	of.Register(flag.CommandLine)
	flag.Parse()

	ob, cleanup, err := of.Setup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "kenbench: %v\n", err)
		os.Exit(2)
	}
	defer cleanup()

	reg := ob.Reg
	mFigures := reg.Counter("kenbench_figures_total")
	mErrors := reg.Counter("kenbench_errors_total")
	tFigure := reg.Timer("kenbench_figure_seconds")

	cfg := bench.Config{Seed: *seed, TrainSteps: *train, TestSteps: *test}
	if *quick {
		cfg = bench.Quick()
		cfg.Seed = *seed
	}
	cfg.Obs = ob

	if !*all && *fig == 0 {
		fmt.Fprintln(os.Stderr, "kenbench: pass -fig N or -all")
		flag.Usage()
		os.Exit(2)
	}

	// One engine for the whole invocation: artifacts (traces, evaluators,
	// partitions) deduplicate across figures, not just within one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	eng := engine.New(engine.Options{
		Workers: *parallel,
		Obs:     ob,
	})
	slog.Debug("engine configured", "workers", eng.Workers())

	ran := false
	for _, r := range runners {
		if !*all && r.num != *fig {
			continue
		}
		ran = true
		start := time.Now()
		t, err := r.fn(ctx, eng, cfg)
		if err != nil {
			mErrors.Inc()
			slog.Error("figure regeneration failed", "figure", r.num, "err", err)
			cleanup()
			os.Exit(1)
		}
		elapsed := time.Since(start)
		mFigures.Inc()
		tFigure.Observe(elapsed)
		//lint:ignore obshandle per-figure metric family: the name is dynamic and each gauge resolves once per run, off the hot path
		reg.Gauge(fmt.Sprintf("kenbench_figure_%d_seconds", r.num)).Set(elapsed.Seconds())
		write := t.WriteTo
		if *markdown {
			write = t.WriteMarkdown
		}
		if _, err := write(os.Stdout); err != nil {
			slog.Error("writing table failed", "err", err)
			cleanup()
			os.Exit(1)
		}
		fmt.Printf("(figure %d regenerated in %v)\n\n", r.num, elapsed.Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "kenbench: unknown figure %d (have 7-17)\n", *fig)
		os.Exit(2)
	}
	if *metricsOut != "" {
		if err := writeSnapshot(*metricsOut, reg); err != nil {
			slog.Error("writing metrics snapshot failed", "err", err)
			cleanup()
			os.Exit(1)
		}
	}
}

// writeSnapshot dumps the registry as indented JSON to path ('-' = stdout).
func writeSnapshot(path string, reg *obs.Registry) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		return err
	}
	if path != "-" {
		slog.Info("metrics snapshot written", "path", path)
	}
	return nil
}
