package core

import (
	"fmt"

	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/protocol"
)

// Average is the paper's Average model (Example 3.5, Figure 4): every step,
// the network computes the global average X̄ by in-network aggregation and
// disseminates it back down, and each node runs a two-variable model over
// its own reading and the average. Knowing the average, a node reports its
// own value only when the conditional prediction misses. The base station —
// the root of the aggregation tree — also receives X̄, keeping the replicas
// in sync.
//
// Aggregating and disseminating takes a communication round (paper
// footnote 2: the time-t computation happens at t+Δ), so the average
// available at step t is the one aggregated at t−1. The per-node model is
// therefore fit over the pair (X_i(t), X̄(t−1)) — its second variable IS the
// lagged average, keeping conditioning exact.
//
// It is the protocol loop over n one-member cliques with the average as
// evidence (see protocol.New): every sink stays its source's twin.
type Average struct {
	loop *protocol.Loop
	ch   *disseminated
	top  *network.Topology
	// aggCost is the fixed per-step cost of computing and disseminating the
	// average (2 tree sweeps, O(n) messages). Zero under topology-free
	// accounting, matching the paper's Fig 9/10 which plot reported values
	// only.
	aggCost float64
	est     []float64 // Step's estimate view
	span    obs.Span  // current epoch span, set by Run via BeginEpoch
	stepN   int64
}

var (
	_ EpochScoped              = (*Average)(nil)
	_ protocol.EvidenceChannel = (*disseminated)(nil)
)

// disseminated is Average's channel: §3.2's perfect one, with the average
// disseminated last round as both sides' evidence.
type disseminated struct {
	protocol.Perfect
	avg [1]float64
}

func (c *disseminated) Evidence(int) (src, sink []float64) { return c.avg[:], c.avg[:] }

// FitAveragePairs fits every node's (X_i, lagged X̄) pair model from the
// training rows and returns one source kernel per node, the average its
// evidence slot, with the last training average, which primes the first
// test step. The rows (x(t), X̄(t−1)) are built once and every node's model
// is sliced from one model.Moments pass over them, as columns i and n.
// core.Average and simnet.DistributedAverage both run on its result.
func FitAveragePairs(train [][]float64, eps []float64, fitCfg model.FitConfig) ([]*protocol.Kernel, float64, error) {
	if len(train) < 2 {
		return nil, 0, fmt.Errorf("core: Average needs at least 2 training rows, got %d", len(train))
	}
	n := len(train[0])
	if len(eps) != n {
		return nil, 0, fmt.Errorf("core: eps dim %d, training dim %d", len(eps), n)
	}
	avg := make([]float64, len(train))
	for t, row := range train {
		s := 0.0
		for _, v := range row {
			s += v
		}
		avg[t] = s / float64(n)
	}
	// Pair the readings at t with the average disseminated from t−1.
	rows := make([][]float64, len(train)-1)
	for t := range rows {
		rows[t] = append(append(make([]float64, 0, n+1), train[t+1]...), avg[t])
	}
	mo, err := model.NewMoments(rows, fitCfg)
	if err != nil {
		return nil, 0, fmt.Errorf("core: fitting average models: %w", err)
	}
	nodes := make([]*protocol.Kernel, n)
	for i := range nodes {
		mdl, err := mo.Fit([]int{i, n})
		if err != nil {
			return nil, 0, fmt.Errorf("core: fitting average model for node %d: %w", i, err)
		}
		if nodes[i], err = protocol.New(mdl, []int{i}, eps[i:i+1]); err != nil {
			return nil, 0, fmt.Errorf("core: average model for node %d: %w", i, err)
		}
	}
	return nodes, avg[len(avg)-1], nil
}

// NewAverage fits the per-node (X_i, lagged X̄) models from training data.
// top may be nil for topology-independent accounting.
func NewAverage(train [][]float64, eps []float64, fitCfg model.FitConfig, top *network.Topology) (*Average, error) {
	nodes, lastAvg, err := FitAveragePairs(train, eps, fitCfg)
	if err != nil {
		return nil, err
	}
	n := len(nodes)
	if top != nil && top.N() != n {
		return nil, fmt.Errorf("core: topology has %d nodes, data has %d", top.N(), n)
	}
	roots := make([]int, n)
	for i := range roots {
		roots[i] = i
	}
	a := &Average{ch: &disseminated{avg: [1]float64{lastAvg}}, top: top, est: make([]float64, n)}
	a.loop = &protocol.Loop{Src: nodes, Roots: roots, N: n, Channel: a.ch, Choose: (*protocol.Kernel).Choose}
	a.loop.Mirror()
	if top != nil {
		tree, err := top.TreeMessageCost()
		if err != nil {
			return nil, err
		}
		a.aggCost = 2 * tree // one sweep up (aggregate), one down (disseminate)
	}
	return a, nil
}

// Name implements Scheme.
func (a *Average) Name() string { return "Avg" }

// Dim implements Scheme.
func (a *Average) Dim() int { return len(a.est) }

// BeginEpoch implements EpochScoped: the loop's events of the next Step nest
// under the replay driver's epoch span.
func (a *Average) BeginEpoch(sp obs.Span) { a.span = sp }

// Step implements Scheme: one epoch of the protocol loop, its accounting
// from the loop's record, and this step's aggregate for the next.
func (a *Average) Step(truth []float64) ([]float64, StepStats, error) {
	if err := a.loop.Check(truth); err != nil {
		return nil, StepStats{}, err
	}
	if err := a.loop.Epoch(a.stepN, a.span, truth); err != nil {
		return nil, StepStats{}, err
	}
	st := StepStats{IntraCost: a.aggCost, ValuesReported: len(a.loop.Reported), Reported: a.loop.Reported}
	for _, i := range a.loop.Reported {
		if a.top == nil {
			st.SinkCost++
		} else {
			st.SinkCost += a.top.CommToBase(i)
		}
	}
	st.Bytes = obs.WireBytesPerValue * st.ValuesReported
	a.loop.Estimates(a.est)
	a.stepN++
	sum := 0.0
	for _, v := range truth {
		sum += v
	}
	a.ch.avg[0] = sum / float64(len(truth))
	return a.est, st, nil
}
