// Package mc estimates a clique's expected data reduction factor by Monte
// Carlo simulation (paper §4.4).
//
// The paper defines the data reduction factor m_C of a clique C as the
// expected number of attribute values communicated to the sink per time
// step when Ken runs over C with its model. Even for a single linear
// Gaussian attribute no closed form exists, so — exactly as the paper does —
// we estimate it numerically: generate synthetic trajectories from the
// model itself, run the Ken source protocol (predict → check ε → minimal
// report → condition) against them, and average the number of values sent.
package mc

import (
	"errors"
	"fmt"
	"math/rand"

	"ken/internal/model"
	"ken/internal/protocol"
)

// Config controls the Monte Carlo estimate.
type Config struct {
	// Trajectories is the number of independent simulated runs (default 8).
	Trajectories int
	// Horizon is the number of steps per run (default 48).
	Horizon int
	// Seed seeds the simulation RNG.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Trajectories <= 0 {
		c.Trajectories = 8
	}
	if c.Horizon <= 0 {
		c.Horizon = 48
	}
	return c
}

// ErrNoSampler is returned when the model cannot generate synthetic data.
var ErrNoSampler = errors.New("mc: model does not implement model.Sampler")

// ExpectedReports estimates m_C: the mean number of attribute values Ken
// transmits per time step for a clique governed by the sampler model, with
// per-attribute error bounds eps.
func ExpectedReports(m model.Sampler, eps []float64, cfg Config) (float64, error) {
	if m == nil {
		return 0, ErrNoSampler
	}
	if len(eps) != m.Dim() {
		return 0, fmt.Errorf("mc: eps dim %d, model dim %d", len(eps), m.Dim())
	}
	for i, e := range eps {
		if e <= 0 {
			return 0, fmt.Errorf("mc: non-positive epsilon %v for attribute %d", e, i)
		}
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	totalSent := 0
	totalSteps := 0
	for run := 0; run < cfg.Trajectories; run++ {
		sent, err := simulate(m, eps, cfg.Horizon, rng)
		if err != nil {
			return 0, err
		}
		totalSent += sent
		totalSteps += cfg.Horizon
	}
	return float64(totalSent) / float64(totalSteps), nil
}

// simulate runs one trajectory: the belief replica tracks ground truth the
// model itself generates, and we count reported values.
func simulate(m model.Sampler, eps []float64, horizon int, rng *rand.Rand) (int, error) {
	belief, ok := m.Clone().(model.Sampler)
	if !ok {
		return 0, ErrNoSampler
	}
	replica, err := protocol.New(belief, nil, eps)
	if err != nil {
		return 0, err
	}
	truth, err := belief.SampleState(rng)
	if err != nil {
		return 0, err
	}
	sent := 0
	for t := 0; t < horizon; t++ {
		// Draw tomorrow's truth from today's, then advance the belief
		// through one protocol epoch against it.
		next, err := belief.SampleNext(truth, rng)
		if err != nil {
			return 0, err
		}
		reported, err := replica.Advance(next)
		if err != nil {
			return 0, err
		}
		sent += reported
		truth = next
	}
	return sent, nil
}
