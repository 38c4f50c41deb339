package simnet

import (
	"fmt"

	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/protocol"
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
//
// The per-node part is the protocol loop over one-member cliques with the
// average as evidence (core.FitAveragePairs), the program its channel.
type DistributedAverage struct {
	protocol.Perfect // for its Heartbeat: the Average model has none
	net              *Network
	loop             *protocol.Loop
	eps              []float64
	// children is the aggregation/dissemination tree, the base at index n.
	children [][]int
	// prevAvg is the base's last computed average; per-node lastAvg is what
	// each node most recently received (stale for orphans).
	prevAvg [1]float64
	lastAvg []float64
}

var _ protocol.EvidenceChannel = (*DistributedAverage)(nil)

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
		eps:     append([]float64(nil), eps...),
		prevAvg: [1]float64{lastAvg},
		lastAvg: make([]float64, n),
	}
	roots := make([]int, n)
	for i := range roots {
		roots[i], d.lastAvg[i] = i, lastAvg
	}
	d.loop = &protocol.Loop{
		Src: nodes, Roots: roots, N: n,
		Channel: d, Choose: (*protocol.Kernel).Choose, Tracer: net.tracer,
	}
	d.loop.Mirror()
	d.children = make([][]int, n+1)
	for i, p := range parent {
		d.children[p] = append(d.children[p], i)
	}
	return d, nil
}

// Name implements Program.
func (d *DistributedAverage) Name() string { return "avg" }

// Collect implements protocol.Channel: a live node holds its own reading, a
// dead one nothing — the empty, never nil, set.
func (d *DistributedAverage) Collect(i int, _ []float64) []int {
	if d.net.Alive(i) {
		return nil
	}
	return []int{}
}

// Carry implements protocol.Channel: a node unicasts a non-empty report to
// the base; it assumes delivery (no acks), so its replica commits anyway.
func (d *DistributedAverage) Carry(i int, idx []int, vals []float64, under obs.Span) ([]int, []float64, []int) {
	if len(idx) == 0 || d.net.SendSpan(Message{From: i, To: d.net.Base(), Attrs: d.loop.Src[i].Members(), Values: vals}, under) {
		return idx, vals, nil
	}
	return nil, nil, nil
}

// Evidence implements protocol.EvidenceChannel: the average node i last
// received at the node, the one the base disseminated at the base.
func (d *DistributedAverage) Evidence(i int) (src, sink []float64) {
	return d.lastAvg[i : i+1], d.prevAvg[:]
}

// Epoch implements Program.
func (d *DistributedAverage) Epoch(truth []float64) (EpochResult, error) {
	sp, err := d.net.openEpoch(truth)
	if err != nil {
		return EpochResult{}, err
	}
	n := len(d.lastAvg)

	// Phase 1 — aggregate partial (sum, count) pairs up the tree. Each
	// live node sends exactly one two-value message to its parent;
	// delivery failures drop the subtree's contribution.
	sums := make([]float64, n+1)
	counts := make([]float64, n+1)
	for i := 0; i < n; i++ {
		if d.net.Alive(i) {
			sums[i] += truth[i]
			counts[i]++
		}
	}
	var gather func(v int)
	gather = func(v int) {
		for _, c := range d.children[v] {
			gather(c) // leaves first: c's subtree is folded into c
			if counts[c] > 0 && d.net.Alive(c) &&
				d.net.SendSpan(Message{From: c, To: v, Values: []float64{sums[c], counts[c]}}, sp) {
				sums[v] += sums[c]
				counts[v] += counts[c]
			}
		}
	}
	base := d.net.top.Base()
	gather(base)

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
	spread(base, d.prevAvg[0])

	// Phase 3 — the protocol loop: per node, predict given the average,
	// report on a miss.
	err = d.loop.Epoch(int64(d.net.stats.Epochs), sp, truth)
	// This epoch's aggregate becomes next epoch's dissemination.
	if counts[base] > 0 {
		d.prevAvg[0] = sums[base] / counts[base]
	}
	if err != nil {
		return EpochResult{}, err
	}
	res := EpochResult{Estimates: make([]float64, n), ValuesDelivered: len(d.loop.Reported) - d.loop.Lost}
	d.loop.Estimates(res.Estimates)
	d.net.closeEpoch(sp, &res, truth, d.eps, obs.WireBytesPerValue*len(d.loop.Reported))
	return res, nil
}
