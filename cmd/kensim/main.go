// Command kensim runs a single Ken data-collection simulation: it generates
// a deployment trace, fits models on the training prefix, resolves the
// requested scheme through core.Build (selecting a Disjoint-Cliques
// partition with Greedy-k where needed), replays it over the test window,
// and reports savings, cost and the error guarantee.
//
// Usage:
//
//	kensim -dataset garden -scheme djc -k 3
//	kensim -dataset lab -scheme apc -test 2000
//	kensim -dataset garden -scheme djc -k 2 -base 5     # topology-priced run
//	kensim -dataset garden -scheme avg
//	kensim -dataset garden -scheme djc4                 # k inline in the name
//	kensim -dataset garden -scheme all -parallel 4      # side-by-side comparison
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/engine"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flags.
type options struct {
	dataset, scheme string
	k               int
	seed            int64
	train, test     int
	base, eps       float64
	loss            float64
	heartbeat       int
	prob            float64
	parallel        int
	ob              *obs.Observer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kensim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.dataset, "dataset", "garden", "deployment: garden or lab")
	fs.StringVar(&o.scheme, "scheme", "djc", "scheme name resolved via core.Build: tinydb, apc, avg, djc (uses -k), djc<k>, or all")
	fs.IntVar(&o.k, "k", 3, "max clique size for the djc scheme")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.IntVar(&o.train, "train", 100, "training steps (hours)")
	fs.IntVar(&o.test, "test", 1500, "test steps (hours)")
	fs.Float64Var(&o.base, "base", 0, "base-station cost multiplier; 0 = topology-independent accounting")
	fs.Float64Var(&o.eps, "eps", 0, "error bound override; 0 = attribute default (0.5°C)")
	fs.Float64Var(&o.loss, "loss", 0, "report loss probability (djc only; enables the §6 lossy mode)")
	fs.IntVar(&o.heartbeat, "heartbeat", 0, "heartbeat interval in steps under -loss (0 = none)")
	fs.Float64Var(&o.prob, "prob", 0, "probabilistic-reporting steepness (djc only; 0 = deterministic)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool width for -scheme all (0 = GOMAXPROCS, 1 = sequential)")
	var of obs.CmdFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ob, cleanup, err := of.Setup()
	if err != nil {
		fmt.Fprintf(stderr, "kensim: %v\n", err)
		return 2
	}
	o.ob = ob
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = o.run(ctx, stdout)
	cleanup()
	if err != nil {
		fmt.Fprintf(stderr, "kensim: %v\n", err)
		return 1
	}
	return 0
}

// spec assembles the SchemeSpec core.Build resolves name from. "djc" (the
// flag default) becomes "djc<k>".
func (o options) spec(name string, exp trace.Experiment, top *network.Topology) core.SchemeSpec {
	if name == "djc" {
		name = fmt.Sprintf("djc%d", o.k)
	}
	spec := core.SchemeSpec{
		Scheme:   name,
		Eps:      exp.Eps,
		Train:    exp.Train,
		FitCfg:   model.FitConfig{Period: 24},
		MC:       mc.Config{Seed: o.seed},
		Metric:   cliques.MetricReduction,
		Topology: top,
		Obs:      o.ob,
	}
	if o.prob > 0 {
		spec.Prob = &core.ProbConfig{Steepness: o.prob, Seed: o.seed}
	}
	if o.loss > 0 {
		spec.Lossy = &core.LossyConfig{LossRate: o.loss, HeartbeatEvery: o.heartbeat, Seed: o.seed}
	}
	return spec
}

func (o options) run(ctx context.Context, stdout io.Writer) error {
	exp, err := trace.LoadExperiment(o.dataset, o.seed, o.train, o.test, o.eps)
	if err != nil {
		return fmt.Errorf("-dataset %s -train %d -test %d: %w", o.dataset, o.train, o.test, err)
	}
	n := len(exp.Eps)
	var top *network.Topology
	if o.base > 0 {
		top, err = network.Uniform(n, 1, o.base)
		if err != nil {
			return err
		}
	}

	if o.scheme == "all" {
		return o.compareAll(ctx, stdout, exp, top)
	}

	s, err := core.Build(o.spec(o.scheme, exp, top))
	if err != nil {
		return err
	}
	// Schemes selected through Greedy-k expose their partition.
	if p, ok := s.(interface{ Partition() *cliques.Partition }); ok {
		fmt.Fprintf(stdout, "partition    %s\n", p.Partition())
	}

	res, err := core.Run(ctx, s, exp.Test, core.RunOptions{Eps: exp.Eps, Observer: o.ob})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "dataset      %s (%d nodes)\n", o.dataset, n)
	fmt.Fprintf(stdout, "scheme       %s\n", res.Scheme)
	fmt.Fprintf(stdout, "test window  %d steps, ε=%.2g\n", res.Steps, exp.Eps[0])
	fmt.Fprintf(stdout, "reported     %d of %d values (%.1f%%)\n",
		res.ValuesReported, res.Steps*res.Dim, 100*res.FractionReported())
	fmt.Fprintf(stdout, "max |error|  %.4f\n", res.MaxAbsError)
	fmt.Fprintf(stdout, "mean |error| %.4f\n", res.MeanAbsError)
	fmt.Fprintf(stdout, "violations   %d\n", res.BoundViolations)
	if top != nil {
		fmt.Fprintf(stdout, "cost/step    intra %.2f + inter %.2f = %.2f\n",
			res.IntraCost/float64(res.Steps), res.SinkCost/float64(res.Steps),
			res.TotalCost()/float64(res.Steps))
	}
	return nil
}

// compareAll runs every scheme over the same test window on the engine's
// worker pool and prints a side-by-side table (rows come back in scheme
// order regardless of the pool width). Cells share ob's trace sink; the
// engine scopes each cell's events by item index, so the trace audits
// identically whatever the pool width.
func (o options) compareAll(ctx context.Context, stdout io.Writer, exp trace.Experiment, top *network.Topology) error {
	names := []string{"tinydb", "apc", "avg"}
	for kk := 1; kk <= o.k; kk++ {
		names = append(names, fmt.Sprintf("djc%d", kk))
	}
	o.loss, o.prob = 0, 0 // the comparison is of the deterministic, loss-free schemes
	eng := engine.New(engine.Options{Workers: o.parallel, Obs: o.ob})
	ctx = engine.WithScope(ctx, "compare")
	lines, err := engine.Map(ctx, eng, names, func(ctx context.Context, _ int, name string) (string, error) {
		s, err := core.Build(o.spec(name, exp, top))
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		res, err := core.Run(ctx, s, exp.Test, core.RunOptions{Eps: exp.Eps, Observer: o.ob, Scope: engine.Scope(ctx)})
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		line := fmt.Sprintf("%-8s %9.1f%% %10.4f %12d", name,
			100*res.FractionReported(), res.MaxAbsError, res.BoundViolations)
		if top != nil {
			line += fmt.Sprintf(" %12.2f", res.TotalCost()/float64(res.Steps))
		}
		return line, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-8s %10s %10s %12s", "scheme", "reported", "max |err|", "violations")
	if top != nil {
		fmt.Fprintf(stdout, " %12s", "cost/step")
	}
	fmt.Fprintln(stdout)
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	return nil
}
