package network

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ken/internal/trace"
)

// line3 builds a 3-node chain 0-1-2-base with unit links.
func line3(t *testing.T) *Topology {
	t.Helper()
	top, err := New(3, []Link{
		{U: 0, V: 1, Cost: 1},
		{U: 1, V: 2, Cost: 1},
		{U: 2, V: 3, Cost: 1}, // vertex 3 is the base
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("expected error for zero nodes")
	}
	if _, err := New(2, []Link{{U: 0, V: 5, Cost: 1}}); err == nil {
		t.Fatal("expected error for out-of-range link")
	}
	if _, err := New(2, []Link{{U: 0, V: 0, Cost: 1}}); err == nil {
		t.Fatal("expected error for self link")
	}
	if _, err := New(2, []Link{{U: 0, V: 1, Cost: -1}}); err == nil {
		t.Fatal("expected error for negative cost")
	}
	if _, err := New(2, []Link{{U: 0, V: 1, Cost: 1}}); err == nil {
		t.Fatal("expected disconnected error (no path to base)")
	}
}

func TestShortestPathCosts(t *testing.T) {
	top := line3(t)
	if got := top.Comm(0, 2); got != 2 {
		t.Fatalf("Comm(0,2) = %v, want 2", got)
	}
	if got := top.CommToBase(0); got != 3 {
		t.Fatalf("CommToBase(0) = %v, want 3", got)
	}
	if got := top.Comm(1, top.Base()); got != 2 {
		t.Fatalf("Comm(1,base) = %v, want 2", got)
	}
	if got := top.Comm(1, 1); got != 0 {
		t.Fatalf("Comm(1,1) = %v, want 0", got)
	}
}

func TestShortcutBeatsChain(t *testing.T) {
	top, err := New(3, []Link{
		{U: 0, V: 1, Cost: 1},
		{U: 1, V: 2, Cost: 1},
		{U: 2, V: 3, Cost: 1},
		{U: 0, V: 3, Cost: 1.5}, // direct shortcut to base
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := top.CommToBase(0); got != 1.5 {
		t.Fatalf("CommToBase(0) = %v, want 1.5 via shortcut", got)
	}
}

func TestCommPanicsOutOfRange(t *testing.T) {
	top := line3(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top.Comm(0, 99)
}

func TestMaxPairCost(t *testing.T) {
	top := line3(t)
	if got := top.MaxPairCost(); got != 2 {
		t.Fatalf("MaxPairCost = %v, want 2 (0 to 2)", got)
	}
}

func TestRoutingTree(t *testing.T) {
	top := line3(t)
	parent, err := top.RoutingTree()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if parent[i] != want[i] {
			t.Fatalf("parent = %v, want %v", parent, want)
		}
	}
}

func TestTreeMessageCost(t *testing.T) {
	top := line3(t)
	c, err := top.TreeMessageCost()
	if err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("tree cost = %v, want 3 (three unit edges)", c)
	}
}

func TestUniform(t *testing.T) {
	top, err := Uniform(11, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 11 {
		t.Fatalf("N = %d", top.N())
	}
	if got := top.Comm(0, 10); got != 1 {
		t.Fatalf("inter cost = %v, want 1", got)
	}
	if got := top.CommToBase(4); got != 5 {
		t.Fatalf("base cost = %v, want 5", got)
	}
	if _, err := Uniform(3, 0, 1); err == nil {
		t.Fatal("expected error for zero inter cost")
	}
}

func TestUniformBaseMultiplierBelowTriangle(t *testing.T) {
	// With multiplier 0.5 the cheapest node-to-node path routes through
	// the base (0.5 + 0.5 = 1 == direct); Dijkstra should still give 1.
	top, err := Uniform(4, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := top.Comm(0, 1); got != 1 {
		t.Fatalf("Comm = %v, want 1", got)
	}
}

func TestGeometric(t *testing.T) {
	d := trace.GardenDeployment()
	// Base just east of the transect; generous radius keeps it connected.
	top, err := Geometric(d, 44, 0, 12, 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 11 {
		t.Fatalf("N = %d", top.N())
	}
	// Farther nodes pay more to reach the base.
	if top.CommToBase(0) <= top.CommToBase(10) {
		t.Fatalf("west node should pay more: %v vs %v", top.CommToBase(0), top.CommToBase(10))
	}
	if _, err := Geometric(d, 44, 0, 0, 1, 0); err == nil {
		t.Fatal("expected error for zero radius")
	}
	// Radius too small to connect: disconnected error.
	if _, err := Geometric(d, 44, 0, 0.5, 1, 0.1); err == nil {
		t.Fatal("expected disconnected error")
	}
}

func TestLabRegions(t *testing.T) {
	d := trace.LabDeployment()
	regions := LabRegions(d)
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	total := 0
	seen := map[int]bool{}
	for _, r := range regions {
		total += len(r.Nodes)
		for _, i := range r.Nodes {
			if seen[i] {
				t.Fatalf("node %d in two regions", i)
			}
			seen[i] = true
		}
	}
	if total != d.N() {
		t.Fatalf("regions cover %d of %d nodes", total, d.N())
	}
	// East nodes must be east (larger x) of west nodes on average.
	avgX := func(nodes []int) float64 {
		s := 0.0
		for _, i := range nodes {
			s += d.Nodes[i].X
		}
		return s / float64(len(nodes))
	}
	if avgX(regions[0].Nodes) <= avgX(regions[2].Nodes) {
		t.Fatal("east region not east of west region")
	}
	if regions[0].BaseMultiplier >= regions[2].BaseMultiplier {
		t.Fatal("east multiplier should be smallest")
	}
}

// Property: Comm is a metric-like function — symmetric, zero on diagonal,
// and obeying the triangle inequality (it is a shortest path).
func TestQuickCommMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		var links []Link
		// Random connected-ish graph: a spanning chain plus extras.
		for i := 0; i < n; i++ {
			links = append(links, Link{U: i, V: i + 1, Cost: 0.5 + r.Float64()*3})
		}
		for e := 0; e < n; e++ {
			u, v := r.Intn(n+1), r.Intn(n+1)
			if u != v {
				links = append(links, Link{U: u, V: v, Cost: 0.5 + r.Float64()*3})
			}
		}
		top, err := New(n, links)
		if err != nil {
			return false
		}
		for i := 0; i <= n; i++ {
			if top.Comm(i, i) != 0 {
				return false
			}
			for j := 0; j <= n; j++ {
				if math.Abs(top.Comm(i, j)-top.Comm(j, i)) > 1e-12 {
					return false
				}
				for k := 0; k <= n; k++ {
					if top.Comm(i, j) > top.Comm(i, k)+top.Comm(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the routing tree always walks downhill in base distance and
// terminates at the base.
func TestQuickRoutingTreeReachesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		var links []Link
		for i := 0; i < n; i++ {
			links = append(links, Link{U: i, V: i + 1, Cost: 0.5 + r.Float64()*2})
		}
		for e := 0; e < n/2; e++ {
			u, v := r.Intn(n+1), r.Intn(n+1)
			if u != v {
				links = append(links, Link{U: u, V: v, Cost: 0.5 + r.Float64()*2})
			}
		}
		top, err := New(n, links)
		if err != nil {
			return false
		}
		parent, err := top.RoutingTree()
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			cur, hops := i, 0
			for cur != top.Base() {
				next := parent[cur]
				if top.CommToBase(next) >= top.CommToBase(cur) && next != top.Base() {
					return false // not walking downhill
				}
				cur = next
				hops++
				if hops > n+1 {
					return false // cycle
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLogicalExpansion(t *testing.T) {
	phys := line3(t) // 0-1-2-base, unit links
	lt, err := Logical(phys, 3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if lt.N() != 9 {
		t.Fatalf("logical N = %d, want 9", lt.N())
	}
	// Same-node attributes are nearly free to pool.
	if c := lt.Comm(0, 2); c > 0.01 {
		t.Fatalf("same-node comm = %v, want ~0", c)
	}
	// Cross-node same-attribute cost matches the physical path.
	if c := lt.Comm(0, 3); math.Abs(c-1) > 0.01 {
		t.Fatalf("cross-node comm = %v, want ~1", c)
	}
	// Base reachability with physical distance preserved (node 0 is three
	// physical hops from the base).
	if c := lt.CommToBase(0); math.Abs(c-3) > 0.01 {
		t.Fatalf("logical base comm = %v, want ~3", c)
	}
	// Cross-node, cross-attribute routes through the attribute chains.
	if c := lt.Comm(2, 5); math.Abs(c-1) > 0.02 {
		t.Fatalf("cross comm = %v, want ~1", c)
	}
	// Validation.
	if _, err := Logical(phys, 0, 0.001); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Logical(phys, 2, 0); err == nil {
		t.Fatal("expected error for zero same-node cost")
	}
}

// TestChainAndStar pins the two packet-simulator topologies against the
// link literals they replaced in kennet, the figure harness and the
// lifetime example.
func TestChainAndStar(t *testing.T) {
	chain, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Link{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}}; !reflect.DeepEqual(chain.Links(), want) {
		t.Fatalf("Chain(4) links = %v, want %v", chain.Links(), want)
	}
	if chain.CommToBase(0) != 4 || chain.CommToBase(3) != 1 {
		t.Fatalf("chain base costs %v, %v", chain.CommToBase(0), chain.CommToBase(3))
	}
	star, err := Star(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Link{{0, 4, 1}, {1, 4, 1}, {2, 4, 1}, {3, 4, 1}}; !reflect.DeepEqual(star.Links(), want) {
		t.Fatalf("Star(4) links = %v, want %v", star.Links(), want)
	}
	if star.CommToBase(2) != 1 || star.Comm(0, 3) != 2 {
		t.Fatalf("star costs %v to base, %v node to node", star.CommToBase(2), star.Comm(0, 3))
	}
	// kennet's single-hop "star" also links every pair of nodes directly:
	// that one is Uniform(n, 1, 1), the same link set in another order.
	mesh, err := Uniform(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var literal []Link
	for i := 0; i < 4; i++ {
		literal = append(literal, Link{U: i, V: 4, Cost: 1})
		for j := i + 1; j < 4; j++ {
			literal = append(literal, Link{U: i, V: j, Cost: 1})
		}
	}
	byEnds := func(ls []Link) {
		sort.Slice(ls, func(a, b int) bool { return ls[a].U*10+ls[a].V < ls[b].U*10+ls[b].V })
	}
	got := mesh.Links()
	byEnds(got)
	byEnds(literal)
	if !reflect.DeepEqual(got, literal) {
		t.Fatalf("Uniform(4,1,1) links = %v, kennet's star literal = %v", got, literal)
	}
	for _, build := range []func(int) (*Topology, error){Chain, Star} {
		if _, err := build(0); err == nil {
			t.Fatal("expected error for zero nodes")
		}
	}
}

// Neighbors answers from the adjacency New builds once, in the order the
// scan over the link set it replaced gave: each incident link in link
// order, oriented away from the vertex.
func TestNeighborsMatchLinkScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		var links []Link
		for i := 0; i < n; i++ {
			links = append(links, Link{U: i, V: n, Cost: 1 + rng.Float64()}) // keeps every node connected
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n+1), rng.Intn(n+1)
			if u != v {
				links = append(links, Link{U: u, V: v, Cost: 1 + rng.Float64()})
			}
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		top, err := New(n, links)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u <= n; u++ {
			var want []Link
			for _, l := range top.Links() {
				switch u {
				case l.U:
					want = append(want, l)
				case l.V:
					want = append(want, Link{U: l.V, V: l.U, Cost: l.Cost})
				}
			}
			if got := top.Neighbors(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d vertex %d: %v, the link scan %v", trial, u, got, want)
			}
		}
	}
}
