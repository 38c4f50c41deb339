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
	"math"
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

// Epochs returns the number of simulated epochs an estimate averages over,
// Trajectories × Horizon after defaults: m_C is the values reported over
// them divided by this.
func (c Config) Epochs() int {
	c = c.withDefaults()
	return c.Trajectories * c.Horizon
}

// NoLimit is the report limit of an estimate that always runs to the end.
const NoLimit = math.MaxInt

// ErrNoSampler is returned when the model cannot generate synthetic data.
var ErrNoSampler = errors.New("mc: model does not implement model.Sampler")

// ExpectedReports estimates m_C: the mean number of attribute values Ken
// transmits per time step for a clique governed by the sampler model, with
// per-attribute error bounds eps. It is ExpectedReportsWithin with no limit.
func ExpectedReports(m model.Sampler, eps []float64, cfg Config) (float64, error) {
	est, _, err := ExpectedReportsWithin(m, eps, cfg, NoLimit)
	return est, err
}

// ExpectedReportsWithin is the estimate that gives up once more than limit
// values have been reported: complete is then false and est is not an
// estimate of anything. The count only grows, so the m_C of the full run
// would have been above limit / cfg.Epochs(); a caller that needs no more
// than that bound stops paying for the rest. A complete estimate is the
// bits of an unlimited one.
//
// Trajectories run on one replica of m, cloned once and reset to m's state
// with CopyStateFrom before each, so m itself is only read and concurrent
// estimates of one fitted model are safe.
func ExpectedReportsWithin(m model.Sampler, eps []float64, cfg Config, limit int) (est float64, complete bool, err error) {
	if m == nil {
		return 0, false, ErrNoSampler
	}
	if len(eps) != m.Dim() {
		return 0, false, fmt.Errorf("mc: eps dim %d, model dim %d", len(eps), m.Dim())
	}
	for i, e := range eps {
		if e <= 0 {
			return 0, false, fmt.Errorf("mc: non-positive epsilon %v for attribute %d", e, i)
		}
	}
	cfg = cfg.withDefaults()
	tr, err := newTrajectory(m, eps, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return 0, false, err
	}
	sent := 0
	for run := 0; run < cfg.Trajectories; run++ {
		if err := tr.reset(m); err != nil {
			return 0, false, err
		}
		for t := 0; t < cfg.Horizon; t++ {
			reported, err := tr.step()
			if err != nil {
				return 0, false, err
			}
			if sent += reported; sent > limit {
				return 0, false, nil
			}
		}
	}
	return float64(sent) / float64(cfg.Epochs()), true, nil
}

// trajectory is the simulated run: a belief replica tracking ground truth
// the model itself generates. Today's and tomorrow's truth take turns in
// two buffers, so a step allocates nothing, and reset starts the next run
// on the same replica and buffers.
type trajectory struct {
	belief      model.Sampler
	replica     *protocol.Kernel
	truth, next []float64
	rng         *rand.Rand
}

func newTrajectory(m model.Sampler, eps []float64, rng *rand.Rand) (*trajectory, error) {
	belief, ok := m.Clone().(model.Sampler)
	if !ok {
		return nil, ErrNoSampler
	}
	replica, err := protocol.New(belief, nil, eps)
	if err != nil {
		return nil, err
	}
	n := m.Dim()
	return &trajectory{belief: belief, replica: replica, truth: make([]float64, n), next: make([]float64, n), rng: rng}, nil
}

// reset puts the belief back in m's state and draws the run's first truth
// from it.
func (tr *trajectory) reset(m model.Sampler) error {
	if err := tr.belief.CopyStateFrom(m); err != nil {
		return err
	}
	return tr.belief.SampleState(tr.truth, tr.rng)
}

// step draws tomorrow's truth from today's, then advances the belief
// through one protocol epoch against it, and returns the values reported.
func (tr *trajectory) step() (int, error) {
	if err := tr.belief.SampleNext(tr.next, tr.truth, tr.rng); err != nil {
		return 0, err
	}
	reported, err := tr.replica.Advance(tr.next)
	if err != nil {
		return 0, err
	}
	tr.truth, tr.next = tr.next, tr.truth
	return reported, nil
}
