package network

import (
	"fmt"
	"math"
	"sort"

	"ken/internal/trace"
)

// Uniform builds the paper's garden evaluation topology (Fig 12): n sensor
// nodes with equivalent path cost interCost between every pair, and cost
// interCost·baseMultiplier from every node to the base station.
func Uniform(n int, interCost, baseMultiplier float64) (*Topology, error) {
	if interCost <= 0 || baseMultiplier <= 0 {
		return nil, fmt.Errorf("network: uniform costs must be positive (inter %v, base multiplier %v)", interCost, baseMultiplier)
	}
	links := make([]Link, 0, n*(n-1)/2+n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links = append(links, Link{U: i, V: j, Cost: interCost})
		}
		links = append(links, Link{U: i, V: n, Cost: interCost * baseMultiplier})
	}
	return New(n, links)
}

// Chain builds the multi-hop transect of the packet-level experiments:
// unit-cost links 0–1–…–(n−1)–base, so node n−1 sits next to the base and
// relays everyone's traffic.
func Chain(n int) (*Topology, error) {
	links := make([]Link, 0, n)
	for i := 0; i < n; i++ {
		links = append(links, Link{U: i, V: i + 1, Cost: 1})
	}
	return New(n, links)
}

// Star builds the single-hop topology whose only links are one unit-cost
// link from every node to the base, so a per-hop loss rate is exactly the
// per-message loss rate to the base (node-to-node traffic relays through
// it). The single-hop topology that also links every pair of nodes
// directly is Uniform(n, 1, 1).
func Star(n int) (*Topology, error) {
	links := make([]Link, 0, n)
	for i := 0; i < n; i++ {
		links = append(links, Link{U: i, V: n, Cost: 1})
	}
	return New(n, links)
}

// Geometric builds a topology from a deployment's node positions: nodes
// within radius metres get a link whose cost is costPerMetre·distance
// (minimum minCost), and the base station sits at (baseX, baseY) linked to
// nodes within radius of it. "Link quality is roughly proportional to
// geographic distance" (§5.4).
func Geometric(d *trace.Deployment, baseX, baseY, radius, costPerMetre, minCost float64) (*Topology, error) {
	if radius <= 0 || costPerMetre <= 0 {
		return nil, fmt.Errorf("network: geometric radius %v and cost %v must be positive", radius, costPerMetre)
	}
	n := d.N()
	var links []Link
	cost := func(dist float64) float64 {
		c := dist * costPerMetre
		if c < minCost {
			c = minCost
		}
		return c
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist := d.Nodes[i].Distance(d.Nodes[j]); dist <= radius {
				links = append(links, Link{U: i, V: j, Cost: cost(dist)})
			}
		}
		dx, dy := d.Nodes[i].X-baseX, d.Nodes[i].Y-baseY
		if dist := math.Sqrt(dx*dx + dy*dy); dist <= radius {
			links = append(links, Link{U: i, V: n, Cost: cost(dist)})
		}
	}
	return New(n, links)
}

// Region identifies a subset of a deployment by distance from the base
// station, as in the paper's east/central/west partition of the lab (Fig 13).
type Region struct {
	Name           string
	Nodes          []int   // node indices in the region
	BaseMultiplier float64 // cost-to-base relative to intra-region cost
}

// LabRegions splits a deployment's nodes into three equal-size bands by
// x-position. The base station resides at the east (max-x) end, so the
// bands carry the paper's base-cost multipliers: East ×1.5 ("excellent"),
// Central ×3 ("good"), West ×6 ("moderate").
func LabRegions(d *trace.Deployment) []Region {
	idx := make([]int, d.N())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return d.Nodes[idx[a]].X > d.Nodes[idx[b]].X })
	third := (len(idx) + 2) / 3
	regions := []Region{
		{Name: "east", BaseMultiplier: 1.5},
		{Name: "central", BaseMultiplier: 3},
		{Name: "west", BaseMultiplier: 6},
	}
	for k, i := range idx {
		r := k / third
		if r > 2 {
			r = 2
		}
		regions[r].Nodes = append(regions[r].Nodes, i)
	}
	for r := range regions {
		sort.Ints(regions[r].Nodes)
	}
	return regions
}

// Logical expands a physical topology into a logical one over (node,
// attribute) pairs, unlocking cliques that mix attributes across nodes —
// the §5.5 idea ("multiple attributes per physical node are multiple
// logical nodes with zero communication cost among them") composed with
// Disjoint-Cliques partitioning.
//
// Logical vertex node*k + attr lives on physical node `node`. Attributes
// co-located on a node are chained with sameNodeCost (≈ 0, must be
// positive); each node's attribute 0 inherits the node's physical links.
// The logical base station is the last vertex, linked wherever the
// physical base was.
func Logical(phys *Topology, k int, sameNodeCost float64) (*Topology, error) {
	if k < 1 {
		return nil, fmt.Errorf("network: logical expansion needs k >= 1, got %d", k)
	}
	if sameNodeCost <= 0 {
		return nil, fmt.Errorf("network: same-node cost %v must be positive", sameNodeCost)
	}
	n := phys.N()
	ln := n * k
	logical := func(node, attr int) int { return node*k + attr }
	var links []Link
	// Same-node attribute chains.
	for i := 0; i < n; i++ {
		for a := 1; a < k; a++ {
			links = append(links, Link{U: logical(i, a-1), V: logical(i, a), Cost: sameNodeCost})
		}
	}
	// Physical links attach at attribute 0 (radio is per node, not per
	// attribute).
	for _, l := range phys.Links() {
		u, v := l.U, l.V
		lu, lv := 0, 0
		if u == phys.Base() {
			lu = ln
		} else {
			lu = logical(u, 0)
		}
		if v == phys.Base() {
			lv = ln
		} else {
			lv = logical(v, 0)
		}
		links = append(links, Link{U: lu, V: lv, Cost: l.Cost})
	}
	return New(ln, links)
}
