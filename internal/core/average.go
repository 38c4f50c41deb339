package core

import (
	"fmt"

	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
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
	n    int
	src  []model.Model // per node, over [x_i(t), avg(t−1)]
	sink []model.Model
	eps  []float64
	top  *network.Topology
	// aggCost is the fixed per-step cost of computing and disseminating the
	// average (2 tree sweeps, O(n) messages). Zero under topology-free
	// accounting, matching the paper's Fig 9/10 which plot reported values
	// only.
	aggCost float64
	// prevAvg is the last disseminated average.
	prevAvg float64
	primed  bool
}

var _ Scheme = (*Average)(nil)

// The per-node pair model's two variables, as observation index sets.
var (
	pairOwn = []int{0} // the node's own reading x_i(t)
	pairAvg = []int{1} // the lagged network average X̄(t−1)
)

// NewAverage fits the per-node (X_i, lagged X̄) models from training data.
// top may be nil for topology-independent accounting.
func NewAverage(train [][]float64, eps []float64, fitCfg model.FitConfig, top *network.Topology) (*Average, error) {
	if len(train) < 2 {
		return nil, fmt.Errorf("core: Average needs at least 2 training rows, got %d", len(train))
	}
	n := len(train[0])
	if len(eps) != n {
		return nil, fmt.Errorf("core: eps dim %d, training dim %d", len(eps), n)
	}
	for i, e := range eps {
		if e <= 0 {
			return nil, fmt.Errorf("core: non-positive epsilon %v for attribute %d", e, i)
		}
	}
	if top != nil && top.N() != n {
		return nil, fmt.Errorf("core: topology has %d nodes, data has %d", top.N(), n)
	}
	a := &Average{
		n:   n,
		eps: append([]float64(nil), eps...),
		top: top,
	}
	if top != nil {
		tree, err := top.TreeMessageCost()
		if err != nil {
			return nil, err
		}
		a.aggCost = 2 * tree // one sweep up (aggregate), one down (disseminate)
	}
	avg := make([]float64, len(train))
	for t, row := range train {
		s := 0.0
		for _, v := range row {
			s += v
		}
		avg[t] = s / float64(n)
	}
	for i := 0; i < n; i++ {
		// Pair the reading at t with the average disseminated from t−1.
		cols := make([][]float64, 0, len(train)-1)
		for t := 1; t < len(train); t++ {
			cols = append(cols, []float64{train[t][i], avg[t-1]})
		}
		mdl, err := model.FitLinearGaussian(cols, fitCfg)
		if err != nil {
			return nil, fmt.Errorf("core: fitting average model for node %d: %w", i, err)
		}
		a.src = append(a.src, mdl.Clone())
		a.sink = append(a.sink, mdl.Clone())
	}
	// The last training average primes the first test step.
	a.prevAvg = avg[len(avg)-1]
	a.primed = true
	return a, nil
}

// Name implements Scheme.
func (a *Average) Name() string { return "Avg" }

// Dim implements Scheme.
func (a *Average) Dim() int { return a.n }

// Step implements Scheme.
func (a *Average) Step(truth []float64) ([]float64, StepStats, error) {
	if len(truth) != a.n {
		return nil, StepStats{}, fmt.Errorf("core: truth dim %d, want %d", len(truth), a.n)
	}
	est := make([]float64, a.n)
	st := StepStats{IntraCost: a.aggCost}
	for i := 0; i < a.n; i++ {
		a.src[i].Step()
		a.sink[i].Step()
		// Both replicas know the average disseminated last round.
		if a.primed {
			avg := []float64{a.prevAvg}
			if err := a.src[i].Condition(pairAvg, avg); err != nil {
				return nil, StepStats{}, err
			}
			if err := a.sink[i].Condition(pairAvg, avg); err != nil {
				return nil, StepStats{}, err
			}
		}
		mean := a.src[i].Mean()
		if d := mean[0] - truth[i]; d > a.eps[i] || d < -a.eps[i] {
			own := []float64{truth[i]}
			if err := a.src[i].Condition(pairOwn, own); err != nil {
				return nil, StepStats{}, err
			}
			if err := a.sink[i].Condition(pairOwn, own); err != nil {
				return nil, StepStats{}, err
			}
			st.ValuesReported++
			st.Reported = append(st.Reported, i)
			if a.top == nil {
				st.SinkCost++
			} else {
				st.SinkCost += a.top.CommToBase(i)
			}
		}
		est[i] = a.sink[i].Mean()[0]
	}
	st.Bytes = obs.WireBytesPerValue * st.ValuesReported
	// Aggregate this step's readings for dissemination next round.
	sum := 0.0
	for _, v := range truth {
		sum += v
	}
	a.prevAvg = sum / float64(a.n)
	a.primed = true
	return est, st, nil
}
