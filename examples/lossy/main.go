// Lossy: Ken over an unreliable radio (§6 "Robustness to Message Loss").
//
// End-to-end acknowledgements are too expensive for sensornets, so lost
// reports silently desynchronise the source and sink replicas. The
// Markovian models offer a cheaper remedy: a periodic heartbeat carrying
// the current values makes the future independent of the divergent past,
// so inconsistencies are transient. This example sweeps heartbeat
// frequency at a fixed 30% loss rate and shows the trade-off between extra
// heartbeat traffic and residual error.
//
//	go run ./examples/lossy
package main

import (
	"context"
	"fmt"
	"log"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/trace"
)

const (
	trainHours = 100
	testHours  = 1000
	lossRate   = 0.3
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	exp, err := trace.LoadExperiment("garden", 11, trainHours, testHours, 0)
	if err != nil {
		return err
	}
	n, train, test, eps := len(exp.Eps), exp.Train, exp.Test, exp.Eps
	p, err := cliques.Runs(n, 2, cliques.RootFirst)
	if err != nil {
		return err
	}
	base := core.KenConfig{
		Partition: p,
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	}

	fmt.Printf("garden, %d nodes, %d hours, %.0f%% message loss\n", n, testHours, 100*lossRate)
	fmt.Printf("%-18s %10s %12s %12s %10s\n", "heartbeat", "reported", "violations", "stale steps", "max err")
	for _, every := range []int{0, 48, 12, 4} {
		s, err := core.NewLossyKen(base, core.LossyConfig{
			LossRate:       lossRate,
			HeartbeatEvery: every,
			Seed:           11,
		})
		if err != nil {
			return err
		}
		res, err := core.Run(context.Background(), s, test, core.RunOptions{Eps: eps})
		if err != nil {
			return err
		}
		label := "none"
		if every > 0 {
			label = fmt.Sprintf("every %d h", every)
		}
		// A "stale step" is a (step, node) whose estimate violates ε —
		// divergence the guarantee would have forbidden on a clean channel.
		fmt.Printf("%-18s %9.1f%% %12d %12d %10.2f\n",
			label, 100*res.FractionReported(), res.BoundViolations,
			res.BoundViolations, res.MaxAbsError)
	}
	fmt.Println("\nmore frequent heartbeats spend messages to cap divergence — transient, as §6 predicts")
	return nil
}
