package core

import (
	"fmt"
	"math"

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
type Average struct {
	nodes []AveragePair
	top   *network.Topology
	// aggCost is the fixed per-step cost of computing and disseminating the
	// average (2 tree sweeps, O(n) messages). Zero under topology-free
	// accounting, matching the paper's Fig 9/10 which plot reported values
	// only.
	aggCost float64
	// prevAvg is the last disseminated average.
	prevAvg float64
	est     []float64 // Step's estimate view
	sent    []int     // Step's report view
}

var _ Scheme = (*Average)(nil)

// AveragePair is one node of the Average model: the source and sink
// replicas of its two-variable model over [x_i(t), X̄(t−1)], run through the
// protocol kernel like any clique. The average's slot carries an infinite
// bound, so it is never checked and never a candidate for the report.
type AveragePair struct {
	Src, Sink *protocol.Kernel
	pair      [2]float64 // the readings vector Choose gathers from; only slot 0 is read
}

// The pair model's two variables, as observation index sets.
var (
	pairOwn = []int{0} // the node's own reading x_i(t)
	pairAvg = []int{1} // the lagged network average X̄(t−1)
)

// FitAveragePairs fits every node's (X_i, lagged X̄) pair model from the
// training rows and returns the replica pairs together with the last
// training average, which primes the first test step. core.Average and
// simnet.DistributedAverage both run on its result.
func FitAveragePairs(train [][]float64, eps []float64, fitCfg model.FitConfig) ([]AveragePair, float64, error) {
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
	nodes := make([]AveragePair, n)
	for i := range nodes {
		// Pair the reading at t with the average disseminated from t−1.
		cols := make([][]float64, 0, len(train)-1)
		for t := 1; t < len(train); t++ {
			cols = append(cols, []float64{train[t][i], avg[t-1]})
		}
		mdl, err := model.FitLinearGaussian(cols, fitCfg)
		if err != nil {
			return nil, 0, fmt.Errorf("core: fitting average model for node %d: %w", i, err)
		}
		proto, err := protocol.New(mdl, nil, []float64{eps[i], math.Inf(1)})
		if err != nil {
			return nil, 0, fmt.Errorf("core: average model for node %d: %w", i, err)
		}
		nodes[i] = AveragePair{Src: proto, Sink: proto.Clone()}
	}
	return nodes, avg[len(avg)-1], nil
}

// Predict advances both replicas one step and conditions each on the
// average its side holds: what the node last received and what the base
// last disseminated. They are the same number unless the node is cut off.
func (p *AveragePair) Predict(nodeAvg, baseAvg float64) error {
	p.Src.Predict()
	p.Sink.Predict()
	p.pair[1] = nodeAvg
	if err := p.Src.Commit(pairAvg, p.pair[1:]); err != nil {
		return err
	}
	p.pair[1] = baseAvg
	return p.Sink.Commit(pairAvg, p.pair[1:])
}

// Choose is the node's decision: its own reading when the prediction given
// the average misses it by more than ε, the empty report otherwise. The
// returned pair is the source kernel's scratch (see protocol.Kernel.Choose).
func (p *AveragePair) Choose(reading float64) (idx []int, vals []float64, err error) {
	p.pair[0] = reading
	return p.Src.Choose(p.pair[:], pairOwn)
}

// NewAverage fits the per-node (X_i, lagged X̄) models from training data.
// top may be nil for topology-independent accounting.
func NewAverage(train [][]float64, eps []float64, fitCfg model.FitConfig, top *network.Topology) (*Average, error) {
	nodes, lastAvg, err := FitAveragePairs(train, eps, fitCfg)
	if err != nil {
		return nil, err
	}
	if top != nil && top.N() != len(nodes) {
		return nil, fmt.Errorf("core: topology has %d nodes, data has %d", top.N(), len(nodes))
	}
	a := &Average{nodes: nodes, top: top, prevAvg: lastAvg, est: make([]float64, len(nodes))}
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
func (a *Average) Dim() int { return len(a.nodes) }

// Step implements Scheme.
func (a *Average) Step(truth []float64) ([]float64, StepStats, error) {
	if len(truth) != len(a.nodes) {
		return nil, StepStats{}, fmt.Errorf("core: truth dim %d, want %d", len(truth), len(a.nodes))
	}
	if err := protocol.CheckReadings(truth); err != nil {
		return nil, StepStats{}, err
	}
	st := StepStats{IntraCost: a.aggCost, Reported: a.sent[:0]}
	for i := range a.nodes {
		nd := &a.nodes[i]
		// Both replicas know the average disseminated last round.
		if err := nd.Predict(a.prevAvg, a.prevAvg); err != nil {
			return nil, StepStats{}, err
		}
		idx, vals, err := nd.Choose(truth[i])
		if err != nil {
			return nil, StepStats{}, err
		}
		if err := nd.Src.Commit(idx, vals); err != nil {
			return nil, StepStats{}, err
		}
		if err := nd.Sink.Commit(idx, vals); err != nil {
			return nil, StepStats{}, err
		}
		if len(idx) > 0 {
			st.ValuesReported++
			st.Reported = append(st.Reported, i)
			if a.top == nil {
				st.SinkCost++
			} else {
				st.SinkCost += a.top.CommToBase(i)
			}
		}
		a.est[i] = nd.Sink.Mean()[0]
	}
	a.sent = st.Reported
	st.Bytes = obs.WireBytesPerValue * st.ValuesReported
	// Aggregate this step's readings for dissemination next round.
	sum := 0.0
	for _, v := range truth {
		sum += v
	}
	a.prevAvg = sum / float64(len(a.nodes))
	return a.est, st, nil
}
