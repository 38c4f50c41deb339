// Package deploy assembles ready-to-run Ken deployments from the synthetic
// datasets: it generates the trace, fits and selects a Disjoint-Cliques
// partition, and produces the shared endpoint configuration the streaming
// binaries (kensource, kensinkd -pin, kenswarm) need. Because every step is a
// deterministic function of the flags, two independent processes built
// from the same parameters end up with bit-identical replicas — the
// property the replicated-model protocol depends on.
package deploy

import (
	"fmt"

	"ken/internal/cliques"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/stream"
	"ken/internal/trace"
)

// Params selects and sizes a deployment.
type Params struct {
	// Dataset is "garden" or "lab".
	Dataset string
	// Seed drives trace generation, Monte Carlo estimation and partition
	// selection. Both endpoints must use the same seed.
	Seed int64
	// TrainSteps and TestSteps size the trace (defaults 100 / 500).
	TrainSteps, TestSteps int
	// K caps the Greedy-k clique size (default 2).
	K int
	// Epsilon overrides the attribute default when positive.
	Epsilon float64
	// HeartbeatEvery is forwarded to the stream config.
	HeartbeatEvery int
}

func (p Params) withDefaults() Params {
	if p.Dataset == "" {
		p.Dataset = "garden"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.TrainSteps <= 0 {
		p.TrainSteps = 100
	}
	if p.TestSteps <= 0 {
		p.TestSteps = 500
	}
	if p.K <= 0 {
		p.K = 2
	}
	if p.Epsilon == 0 {
		p.Epsilon = 0 // −0 builds what +0 builds, so it encodes as +0
	}
	return p
}

// Deployment is everything both endpoints agree on, plus the test data the
// source streams.
type Deployment struct {
	Params    Params
	N         int
	Partition *cliques.Partition
	Config    stream.Config
	Test      [][]float64
}

// Build assembles the deployment deterministically from the parameters.
func Build(p Params) (*Deployment, error) {
	p = p.withDefaults()
	exp, err := trace.LoadExperiment(p.Dataset, p.Seed, p.TrainSteps, p.TestSteps, p.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	fitCfg := model.FitConfig{Period: 24}
	part, err := cliques.GreedyFromTraining(exp.Train, exp.Eps, fitCfg, mc.Config{Seed: p.Seed}, nil,
		cliques.GreedyConfig{K: p.K, Metric: cliques.MetricReduction})
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Params:    p,
		N:         len(exp.Eps),
		Partition: part,
		Config: stream.Config{
			Partition:      part,
			Train:          exp.Train,
			Eps:            exp.Eps,
			FitCfg:         fitCfg,
			HeartbeatEvery: p.HeartbeatEvery,
		},
		Test: exp.Test,
	}, nil
}
