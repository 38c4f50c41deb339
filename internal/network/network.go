// Package network models the communication topology of a sensor network:
// pairwise path costs between sensor nodes and the base station, shortest
// path routing, and sink-rooted routing trees.
//
// The paper's optimisation problem (§3.3) is phrased over a pairwise cost
// function comm : N × N → R; this package computes that function from a
// link-level description via all-pairs shortest paths, and provides the
// synthetic topologies used in the evaluation (uniform garden topologies
// with a base-cost multiplier for Fig 12, geometric lab topologies with
// east/central/west regions for Fig 13). A Topology is immutable once New
// returns; the dynamic-topology extension of §6 builds a new one.
package network

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Base is the conventional vertex index of the base station in a Topology
// with n sensor nodes: vertex n. Callers should use Topology.Base().
//
// Sensor nodes are 0..n-1, matching trace node indices.

// Link is an undirected communication link with a positive cost
// (expected transmissions, ETX-style).
type Link struct {
	U, V int
	Cost float64
}

// Topology holds pairwise shortest-path costs over n sensor nodes plus the
// base station, and the underlying link set for routing-tree construction.
type Topology struct {
	n     int
	links []Link
	adj   [][]Link    // per vertex, its incident links oriented away from it, in link order
	cost  [][]float64 // (n+1)×(n+1) path costs; vertex n is the base
}

// ErrDisconnected is returned when some vertex cannot reach the base.
var ErrDisconnected = errors.New("network: topology is disconnected")

// New builds a topology over n sensor nodes from undirected links. Vertex n
// denotes the base station. All-pairs shortest path costs are computed with
// Dijkstra from every vertex. Every sensor must be connected to the base.
func New(n int, links []Link) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("network: need at least one sensor node, got %d", n)
	}
	v := n + 1
	adj := make([][]Link, v)
	for _, l := range links {
		if l.U < 0 || l.U >= v || l.V < 0 || l.V >= v {
			return nil, fmt.Errorf("network: link %d-%d out of range [0,%d]", l.U, l.V, n)
		}
		if l.U == l.V {
			return nil, fmt.Errorf("network: self link at %d", l.U)
		}
		if l.Cost <= 0 || math.IsNaN(l.Cost) || math.IsInf(l.Cost, 0) {
			return nil, fmt.Errorf("network: link %d-%d has invalid cost %v", l.U, l.V, l.Cost)
		}
		adj[l.U] = append(adj[l.U], Link{U: l.U, V: l.V, Cost: l.Cost})
		adj[l.V] = append(adj[l.V], Link{U: l.V, V: l.U, Cost: l.Cost})
	}
	t := &Topology{n: n, links: append([]Link(nil), links...), adj: adj}
	t.cost = make([][]float64, v)
	for src := 0; src < v; src++ {
		t.cost[src] = dijkstra(adj, src)
	}
	for i := 0; i < n; i++ {
		if math.IsInf(t.cost[i][n], 1) {
			return nil, fmt.Errorf("%w: node %d cannot reach the base", ErrDisconnected, i)
		}
	}
	return t, nil
}

// dijkstra returns shortest path costs from src over the adjacency lists.
func dijkstra(adj [][]Link, src int) []float64 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &costHeap{{node: src, cost: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(costItem)
		if it.cost > dist[it.node] {
			continue
		}
		for _, l := range adj[it.node] {
			if nd := it.cost + l.Cost; nd < dist[l.V] {
				dist[l.V] = nd
				heap.Push(pq, costItem{node: l.V, cost: nd})
			}
		}
	}
	return dist
}

type costItem struct {
	node int
	cost float64
}

type costHeap []costItem

func (h costHeap) Len() int            { return len(h) }
func (h costHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h costHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x interface{}) { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// N returns the number of sensor nodes.
func (t *Topology) N() int { return t.n }

// Links returns a copy of the underlying undirected link set.
func (t *Topology) Links() []Link { return append([]Link(nil), t.links...) }

// Neighbors returns the links incident to vertex u (u may be the base),
// each oriented with U == u, in the order of the links New was given. The
// slice is the topology's own, built once by New: callers must not modify
// it.
func (t *Topology) Neighbors(u int) []Link {
	if u < 0 || u > t.n {
		panic(fmt.Sprintf("network: Neighbors(%d) out of range [0,%d]", u, t.n))
	}
	return t.adj[u]
}

// Base returns the vertex index of the base station.
func (t *Topology) Base() int { return t.n }

// Comm returns the shortest path cost between vertices i and j (either may
// be the base vertex). It panics on out-of-range indices: cost lookups sit
// on the optimiser's innermost loop and indices are fixed by construction.
func (t *Topology) Comm(i, j int) float64 {
	if i < 0 || i > t.n || j < 0 || j > t.n {
		panic(fmt.Sprintf("network: Comm(%d,%d) out of range [0,%d]", i, j, t.n))
	}
	return t.cost[i][j]
}

// CommToBase returns the shortest path cost from sensor i to the base.
func (t *Topology) CommToBase(i int) float64 { return t.Comm(i, t.n) }

// MaxPairCost returns max over sensor pairs of Comm(u, v), used by the
// Greedy-k pruning rule (Fig 6): cliques containing a pair farther apart
// than ¼ of this maximum are discarded.
func (t *Topology) MaxPairCost() float64 {
	max := 0.0
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			if c := t.cost[i][j]; c > max {
				max = c
			}
		}
	}
	return max
}

// RoutingTree returns, for every sensor node, its parent on a shortest path
// toward the base station (parent[i] == Base() for nodes adjacent to it).
// The tree is what the Average model's in-network aggregation runs over.
func (t *Topology) RoutingTree() ([]int, error) {
	distFromBase := t.cost[t.n]
	parent := make([]int, t.n)
	for i := 0; i < t.n; i++ {
		best, bestCost := -1, math.Inf(1)
		for _, l := range t.adj[i] {
			// Parent candidate: neighbour on a shortest path to the base.
			if c := distFromBase[l.V] + l.Cost; c <= distFromBase[i]+1e-12 && distFromBase[l.V] < bestCost {
				best, bestCost = l.V, distFromBase[l.V]
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: node %d has no uphill neighbour", ErrDisconnected, i)
		}
		parent[i] = best
	}
	return parent, nil
}

// TreeMessageCost returns the summed link cost of one message per sensor
// node up its routing-tree edge — the per-round cost of the Average model's
// aggregation phase (and, symmetrically, of disseminating the average).
func (t *Topology) TreeMessageCost() (float64, error) {
	parent, err := t.RoutingTree()
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, p := range parent {
		total += t.edgeCost(i, p)
	}
	return total, nil
}

// edgeCost returns the direct link cost between u and v, falling back to
// the path cost when no direct link exists.
func (t *Topology) edgeCost(u, v int) float64 {
	for _, l := range t.links {
		if (l.U == u && l.V == v) || (l.U == v && l.V == u) {
			return l.Cost
		}
	}
	return t.cost[u][v]
}
