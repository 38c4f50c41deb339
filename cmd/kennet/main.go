// Command kennet runs distributed data-collection programs on the
// packet-level network simulator: hop-by-hop forwarding, per-byte radio
// energy, batteries, loss and route repair. It reports communication,
// energy, lifetime and answer quality — the deployment-facing counterpart
// of kensim's protocol-level accounting.
//
// Usage:
//
//	kennet -program ken -steps 2160 -battery 0.35
//	kennet -program tinydb -loss 0.1
//	kennet -program avg -dataset garden -topology chain
//	kennet -program ken -loss 0.2 -arq-retries 3 -heartbeat 10 -failure-alpha 0.01
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/simnet"
	"ken/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flags.
type options struct {
	program, dataset, topology string
	seed                       int64
	train, steps               int
	battery, loss              float64
	k                          int
	arqRetries, retryBudget    int
	heartbeat                  int
	failureAlpha               float64
	ob                         *obs.Observer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kennet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.program, "program", "ken", "node program: ken, tinydb or avg")
	fs.StringVar(&o.dataset, "dataset", "garden", "deployment: garden or lab")
	fs.StringVar(&o.topology, "topology", "chain", "topology: chain (multi-hop) or star (single-hop)")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.IntVar(&o.train, "train", 100, "training steps (hours)")
	fs.IntVar(&o.steps, "steps", 2160, "epochs to simulate")
	fs.Float64Var(&o.battery, "battery", 0.35, "battery Joules per node")
	fs.Float64Var(&o.loss, "loss", 0, "per-hop message loss probability")
	fs.IntVar(&o.k, "k", 2, "clique size for the ken program (adjacent pairs when 2)")
	fs.IntVar(&o.arqRetries, "arq-retries", 0, "ARQ retransmissions per message (0 = no acks, fire and forget)")
	fs.IntVar(&o.retryBudget, "retry-budget", 0, "backoff slots spendable per epoch across all messages (0 = unlimited)")
	fs.IntVar(&o.heartbeat, "heartbeat", 0, "full-value resync every N epochs for the ken program (0 = off)")
	fs.Float64Var(&o.failureAlpha, "failure-alpha", 0, "per-clique failure detection level at the base (0 = off)")
	var of obs.CmdFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ob, cleanup, err := of.Setup()
	if err != nil {
		fmt.Fprintf(stderr, "kennet: %v\n", err)
		return 2
	}
	o.ob = ob
	err = o.run(stdout)
	cleanup()
	if err != nil {
		fmt.Fprintf(stderr, "kennet: %v\n", err)
		return 1
	}
	return 0
}

func (o options) run(stdout io.Writer) error {
	exp, err := trace.LoadExperiment(o.dataset, o.seed, o.train, o.steps, 0)
	if err != nil {
		return fmt.Errorf("-dataset %s -train %d -steps %d: %w", o.dataset, o.train, o.steps, err)
	}
	n := len(exp.Eps)

	var top *network.Topology
	switch o.topology {
	case "chain":
		top, err = network.Chain(n)
	case "star":
		// Single-hop: every node one unit-cost link from the base and from
		// every other node.
		top, err = network.Uniform(n, 1, 1)
	default:
		return fmt.Errorf("unknown topology %q", o.topology)
	}
	if err != nil {
		return err
	}

	radio := simnet.DefaultRadio()
	radio.BatteryJ = o.battery
	radio.IdlePerEpoch = 2e-5
	radio.LossRate = o.loss
	radio.ARQ.MaxRetries = o.arqRetries
	radio.ARQ.RetryBudget = o.retryBudget
	net, err := simnet.New(top, radio, o.seed)
	if err != nil {
		return err
	}
	net.Instrument(o.ob)

	// Ken's cliques root at the member nearest the base (the highest index
	// on the chain).
	part, err := cliques.Runs(n, o.k, cliques.RootLast)
	if err != nil {
		return fmt.Errorf("-k %d: %w", o.k, err)
	}
	prog, err := simnet.NewProgram(o.program, net, part, exp.Train, exp.Eps, model.FitConfig{Period: 24},
		simnet.KenNetConfig{HeartbeatEvery: o.heartbeat, FailureAlpha: o.failureAlpha})
	if err != nil {
		return err
	}
	tot, err := simnet.Run(net, prog, exp.Test)
	if err != nil {
		return err
	}
	st := net.Stats()
	readings := tot.Epochs * n

	fmt.Fprintf(stdout, "program        %s on %s/%s (%d nodes, %d epochs)\n", o.program, o.dataset, o.topology, n, tot.Epochs)
	fmt.Fprintf(stdout, "radio          battery %.3g J, loss %.0f%%\n", o.battery, 100*o.loss)
	if tot.FirstDeath > 0 {
		fmt.Fprintf(stdout, "first death    epoch %d\n", tot.FirstDeath)
	} else {
		fmt.Fprintf(stdout, "first death    none (all %d nodes alive)\n", net.AliveCount())
	}
	fmt.Fprintf(stdout, "alive at end   %d/%d\n", net.AliveCount(), n)
	fmt.Fprintf(stdout, "values at base %d of %d (%.1f%%)\n", tot.Delivered, readings,
		100*float64(tot.Delivered)/float64(readings))
	fmt.Fprintf(stdout, "stale answers  %d of %d readings (%.2f%%)\n", tot.Violations, readings,
		100*float64(tot.Violations)/float64(readings))
	fmt.Fprintf(stdout, "link messages  %d (%d bytes, %d lost, %d unroutable)\n",
		st.MessagesSent, st.BytesSent, st.DroppedLoss, st.DroppedNoPath)
	if o.arqRetries > 0 {
		fmt.Fprintf(stdout, "reliability    %d retransmissions, %d acks\n", st.Retransmits, st.Acks)
	}
	if o.failureAlpha > 0 {
		fmt.Fprintf(stdout, "suspected      %d readings flagged stale by the failure detector\n", tot.StaleReadings)
	}
	fmt.Fprintf(stdout, "energy spent   %.3f J across the network\n", st.EnergySpent)
	return nil
}
