package simnet

import (
	"fmt"

	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/obs"
)

// DistributedAverage runs the paper's Average model (Example 3.5, Figure 4)
// as a real node program: every epoch the network aggregates the global
// average up the routing tree with partial sums (one message per tree
// edge), the base disseminates it back down (one message per edge), and
// each node runs a two-variable model over (own reading, last disseminated
// average), reporting its reading only on a prediction miss.
//
// Failure semantics are physical: a dead node silently drops its whole
// subtree from the aggregate (the average is computed over whatever
// reached the base), and dissemination does not cross dead nodes, so
// orphaned nodes keep predicting with a stale average.
type DistributedAverage struct {
	net   *Network
	n     int
	eps   []float64
	nodes []core.AveragePair // per node, over [x_i(t), avg(t−1)]
	// parent is the aggregation/dissemination tree.
	parent   []int
	children [][]int
	order    []int // leaves-first traversal for aggregation
	// prevAvg is the base's last computed average; per-node lastAvg is what
	// each node most recently received (stale for orphans).
	prevAvg float64
	lastAvg []float64
}

var _ Program = (*DistributedAverage)(nil)

// NewDistributedAverage fits the per-node models and builds the tree.
func NewDistributedAverage(net *Network, train [][]float64, eps []float64, fitCfg model.FitConfig) (*DistributedAverage, error) {
	if net == nil {
		return nil, fmt.Errorf("simnet: nil network")
	}
	nodes, lastAvg, err := core.FitAveragePairs(train, eps, fitCfg)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	n := len(nodes)
	if n != net.top.N() {
		return nil, fmt.Errorf("simnet: training dim %d, network has %d nodes", n, net.top.N())
	}
	parent, err := net.top.RoutingTree()
	if err != nil {
		return nil, err
	}
	d := &DistributedAverage{
		net:     net,
		n:       n,
		eps:     append([]float64(nil), eps...),
		nodes:   nodes,
		parent:  parent,
		prevAvg: lastAvg,
		lastAvg: make([]float64, n),
	}
	d.children = make([][]int, n+1) // index n = base
	for i, p := range parent {
		d.children[p] = append(d.children[p], i)
	}
	d.order = postOrder(d.children, net.top.Base())

	for i := range d.lastAvg {
		d.lastAvg[i] = d.prevAvg
	}
	return d, nil
}

// postOrder returns the sensor nodes in leaves-first order under the base.
func postOrder(children [][]int, base int) []int {
	var out []int
	var walk func(v int)
	walk = func(v int) {
		for _, c := range children[v] {
			walk(c)
		}
		if v != base {
			out = append(out, v)
		}
	}
	walk(base)
	return out
}

// Name implements Program.
func (d *DistributedAverage) Name() string { return "avg" }

// Epoch implements Program.
func (d *DistributedAverage) Epoch(truth []float64) (EpochResult, error) {
	sp, err := d.net.openEpoch(truth)
	if err != nil {
		return EpochResult{}, err
	}
	res := EpochResult{Estimates: make([]float64, d.n)}

	// Phase 1 — aggregate partial (sum, count) pairs up the tree. Each
	// live node sends exactly one two-value message to its parent;
	// delivery failures drop the subtree's contribution.
	sums := make([]float64, d.n+1)
	counts := make([]float64, d.n+1)
	for i := 0; i < d.n; i++ {
		if d.net.Alive(i) {
			sums[i] += truth[i]
			counts[i]++
		}
	}
	for _, i := range d.order { // leaves first: children already folded in
		if counts[i] == 0 {
			continue
		}
		if !d.net.Alive(i) {
			continue
		}
		ok := d.net.SendSpan(Message{From: i, To: d.parent[i],
			Values: []float64{sums[i], counts[i]}}, sp)
		if ok {
			sums[d.parent[i]] += sums[i]
			counts[d.parent[i]] += counts[i]
		}
	}
	base := d.net.top.Base()

	// Phase 2 — disseminate the PREVIOUS epoch's average down the tree:
	// aggregating and disseminating takes a communication round (paper
	// footnote 2), and the per-node models were fit on the lagged pairing
	// (x_i(t), avg(t−1)). Nodes behind dead ancestors keep a stale copy.
	var spread func(v int, avg float64)
	spread = func(v int, avg float64) {
		for _, c := range d.children[v] {
			if !d.net.SendSpan(Message{From: v, To: c, Values: []float64{avg}}, sp) {
				continue
			}
			d.lastAvg[c] = avg
			spread(c, avg)
		}
	}
	spread(base, d.prevAvg)
	// This epoch's aggregate becomes next epoch's dissemination.
	defer func() {
		if counts[base] > 0 {
			d.prevAvg = sums[base] / counts[base]
		}
	}()

	// Phase 3 — per-node prediction and reporting.
	reportBytes := 0
	for i := range d.nodes {
		nd := &d.nodes[i]
		// The node conditions on the average it actually holds; the base's
		// sink replica conditions on what it disseminated. These agree
		// unless the node is orphaned — in which case its reports stopped
		// flowing anyway and divergence shows up as violations.
		if err := nd.Predict(d.lastAvg[i], d.prevAvg); err != nil {
			return EpochResult{}, err
		}
		if d.net.Alive(i) {
			var pred float64
			if sp.Active() {
				pred = nd.Src.Mean()[0]
			}
			idx, vals, err := nd.Choose(truth[i])
			if err != nil {
				return EpochResult{}, err
			}
			if len(idx) > 0 {
				reportBytes += obs.WireBytesPerValue
				var rs *obs.Span
				if sp.Active() {
					rs = sp.Child()
					rs.Emit(obs.Event{
						Type: obs.EvReport, Step: int64(d.net.stats.Epochs), Clique: -1, Node: i,
						Attrs: []int{i}, Values: []float64{truth[i]},
						Payload: &obs.Payload{
							Predicted: []float64{pred}, Observed: []float64{truth[i]},
							Eps: []float64{d.eps[i]}, Bytes: obs.WireBytesPerValue,
						},
					})
				}
				if d.net.SendSpan(Message{From: i, To: base, Attrs: []int{i}, Values: []float64{truth[i]}}, rs) {
					if err := nd.Sink.Commit(idx, vals); err != nil {
						return EpochResult{}, err
					}
					res.ValuesDelivered++
					rs.Child().Emit(obs.Event{
						Type: obs.EvApply, Step: int64(d.net.stats.Epochs), Clique: -1, Node: base,
						Attrs: []int{i}, Values: []float64{truth[i]}, N: 1,
					})
				}
			}
			// The node assumes delivery (no acks): its own replica
			// conditions regardless.
			if err := nd.Src.Commit(idx, vals); err != nil {
				return EpochResult{}, err
			}
		}
		res.Estimates[i] = nd.Sink.Mean()[0]
	}
	d.net.closeEpoch(sp, &res, truth, d.eps, reportBytes)
	return res, nil
}
