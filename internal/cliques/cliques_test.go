package cliques

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ken/internal/leaktest"
	"ken/internal/mat"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/trace"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// uniformTop builds an n-node uniform topology with given base multiplier.
func uniformTop(t *testing.T, n int, baseMult float64) *network.Topology {
	t.Helper()
	top, err := network.Uniform(n, 1, baseMult)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// constEval returns m = perAttr × |clique| — no correlation benefit.
func constEval(perAttr float64) Evaluator {
	return FuncEvaluator(func(clique []int) (float64, error) {
		return perAttr * float64(len(clique)), nil
	})
}

// sharedEval models perfect correlation: any clique needs only `single`
// reported values per step regardless of size.
func sharedEval(single float64) Evaluator {
	return FuncEvaluator(func(clique []int) (float64, error) {
		return single, nil
	})
}

func TestBuildCliqueBasics(t *testing.T) {
	top := uniformTop(t, 4, 5)
	c, err := BuildClique(top, constEval(0.4), []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Members[0] != 0 || c.Members[1] != 2 {
		t.Fatalf("members not sorted: %v", c.Members)
	}
	if math.Abs(c.M-0.8) > 1e-12 {
		t.Fatalf("M = %v, want 0.8", c.M)
	}
	// Uniform topology: root is one of the members (intra = 1), sink = 0.8×5.
	if c.Intra != 1 {
		t.Fatalf("intra = %v, want 1", c.Intra)
	}
	if math.Abs(c.Sink-4) > 1e-12 {
		t.Fatalf("sink = %v, want 4", c.Sink)
	}
	if math.Abs(c.Cost()-5) > 1e-12 {
		t.Fatalf("cost = %v, want 5", c.Cost())
	}
}

func TestBuildCliqueSingletonRootSelf(t *testing.T) {
	top := uniformTop(t, 3, 10)
	c, err := BuildClique(top, constEval(0.5), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Root != 1 || c.Intra != 0 {
		t.Fatalf("singleton root = %d, intra = %v; want self, 0", c.Root, c.Intra)
	}
}

func TestBuildCliqueValidation(t *testing.T) {
	top := uniformTop(t, 3, 2)
	if _, err := BuildClique(top, constEval(1), nil); err == nil {
		t.Fatal("expected error for empty clique")
	}
	if _, err := BuildClique(top, constEval(1), []int{7}); err == nil {
		t.Fatal("expected error for out-of-range member")
	}
	bad := FuncEvaluator(func([]int) (float64, error) { return -1, nil })
	if _, err := BuildClique(top, bad, []int{0}); err == nil {
		t.Fatal("expected error for negative m")
	}
}

func TestPartitionAccounting(t *testing.T) {
	p := &Partition{Cliques: []Clique{
		{Members: []int{0, 1}, Root: 0, M: 0.5, Intra: 1, Sink: 2},
		{Members: []int{2}, Root: 2, M: 0.3, Intra: 0, Sink: 1.5},
	}}
	if p.TotalCost() != 4.5 || p.IntraCost() != 1 || p.SinkCost() != 3.5 {
		t.Fatalf("accounting wrong: %v %v %v", p.TotalCost(), p.IntraCost(), p.SinkCost())
	}
	if p.ExpectedReported() != 0.8 {
		t.Fatalf("reported = %v", p.ExpectedReported())
	}
	if p.MaxCliqueSize() != 2 {
		t.Fatalf("max size = %d", p.MaxCliqueSize())
	}
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err == nil {
		t.Fatal("expected cover error")
	}
	dup := &Partition{Cliques: []Clique{{Members: []int{0}}, {Members: []int{0}}}}
	if err := dup.Validate(1); err == nil {
		t.Fatal("expected duplicate error")
	}
	if s := p.String(); !strings.Contains(s, "{0,1}@0") {
		t.Fatalf("String = %q", s)
	}
}

func TestExhaustiveSingletonsWhenNoCorrelation(t *testing.T) {
	// With additive m and any base cost, merging cliques only adds intra
	// cost: optimal is all singletons.
	top := uniformTop(t, 5, 3)
	p, err := Exhaustive(top, constEval(0.5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	if p.MaxCliqueSize() != 1 {
		t.Fatalf("expected singletons, got %v", p)
	}
}

func TestExhaustiveMergesWhenCorrelated(t *testing.T) {
	// Perfect correlation, expensive base: one big clique wins.
	// Cost(all 5 in one) = intra 4 + 0.5×10 = 9; singletons = 5×0.5×10 = 25.
	top := uniformTop(t, 5, 10)
	p, err := Exhaustive(top, sharedEval(0.5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cliques) != 1 || p.MaxCliqueSize() != 5 {
		t.Fatalf("expected one 5-clique, got %v", p)
	}
	if math.Abs(p.TotalCost()-9) > 1e-9 {
		t.Fatalf("cost = %v, want 9", p.TotalCost())
	}
}

func TestExhaustiveRespectsMaxCliqueSize(t *testing.T) {
	top := uniformTop(t, 5, 10)
	p, err := Exhaustive(top, sharedEval(0.5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	if p.MaxCliqueSize() > 2 {
		t.Fatalf("clique size cap violated: %v", p)
	}
}

func TestExhaustiveGuards(t *testing.T) {
	top := uniformTop(t, 3, 2)
	if _, err := Exhaustive(top, constEval(1), 0); err == nil {
		t.Fatal("expected error for zero max clique size")
	}
	big, err := network.Uniform(21, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exhaustive(big, constEval(1), 2); err == nil {
		t.Fatal("expected infeasibility error for n=21")
	}
}

func TestGreedyCoversAll(t *testing.T) {
	top := uniformTop(t, 7, 5)
	p, err := Greedy(top, sharedEval(0.5), GreedyConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(7); err != nil {
		t.Fatal(err)
	}
	if p.MaxCliqueSize() > 3 {
		t.Fatalf("K violated: %v", p)
	}
}

func TestGreedyK1IsSingletons(t *testing.T) {
	top := uniformTop(t, 4, 5)
	p, err := Greedy(top, sharedEval(0.5), GreedyConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cliques) != 4 || p.MaxCliqueSize() != 1 {
		t.Fatalf("expected 4 singletons, got %v", p)
	}
}

func TestGreedyMatchesExhaustiveOnEasyInstance(t *testing.T) {
	top := uniformTop(t, 5, 10)
	exh, err := Exhaustive(top, sharedEval(0.5), 5)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := Greedy(top, sharedEval(0.5), GreedyConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grd.TotalCost()-exh.TotalCost()) > 1e-9 {
		t.Fatalf("greedy %v vs exhaustive %v", grd.TotalCost(), exh.TotalCost())
	}
}

func TestGreedyPruningRule(t *testing.T) {
	// A line topology where node 3 is very far: cliques pairing 0 with 3
	// must be pruned, so 0's clique stays local.
	links := []network.Link{
		{U: 0, V: 1, Cost: 1},
		{U: 1, V: 2, Cost: 1},
		{U: 2, V: 3, Cost: 50},
		{U: 3, V: 4, Cost: 1}, // vertex 4 is the base
	}
	top, err := network.New(4, links)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect correlation would otherwise favour one giant clique.
	p, err := Greedy(top, sharedEval(0.2), GreedyConfig{K: 4, PruneFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cliques {
		hasNear, hasFar := false, false
		for _, m := range c.Members {
			if m <= 2 {
				hasNear = true
			} else {
				hasFar = true
			}
		}
		if hasNear && hasFar {
			t.Fatalf("pruning failed, clique spans the long link: %v", p)
		}
	}
}

func TestGreedyValidation(t *testing.T) {
	top := uniformTop(t, 3, 2)
	if _, err := Greedy(top, constEval(1), GreedyConfig{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestGreedyMetricReduction(t *testing.T) {
	// MetricReduction ignores topology: with shared m, bigger cliques have
	// higher per-attribute reduction, so greedy builds max-size cliques.
	top := uniformTop(t, 6, 1)
	p, err := Greedy(top, sharedEval(0.5), GreedyConfig{K: 3, Metric: MetricReduction})
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxCliqueSize() != 3 {
		t.Fatalf("reduction metric should max out clique size: %v", p)
	}
}

// gardenEvaluator builds an MCEvaluator over real generated garden data.
func gardenEvaluator(t *testing.T, n int) (*MCEvaluator, *network.Topology) {
	t.Helper()
	tr, err := trace.GenerateGarden(51, 150)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	train := make([][]float64, len(rows))
	for i, r := range rows {
		train[i] = r[:n]
	}
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	eval, err := NewMCEvaluator(train, eps, model.FitConfig{Period: 24},
		mc.Config{Trajectories: 4, Horizon: 24, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	top, err := network.Uniform(n, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return eval, top
}

func TestMCEvaluatorValidation(t *testing.T) {
	if _, err := NewMCEvaluator(nil, nil, model.FitConfig{}, mc.Config{}); err == nil {
		t.Fatal("expected error for empty training data")
	}
	if _, err := NewMCEvaluator([][]float64{{1, 2}}, []float64{1}, model.FitConfig{}, mc.Config{}); err == nil {
		t.Fatal("expected error for eps dim mismatch")
	}
	if _, err := NewMCEvaluator([][]float64{{1}}, []float64{0}, model.FitConfig{}, mc.Config{}); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
}

func TestMCEvaluatorCachingAndDeterminism(t *testing.T) {
	eval, _ := gardenEvaluator(t, 4)
	a, err := eval.M([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if eval.CacheSize() != 1 {
		t.Fatalf("cache size = %d", eval.CacheSize())
	}
	b, err := eval.M([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cached value changed: %v vs %v", a, b)
	}
	if a < 0 || a > 2 {
		t.Fatalf("m out of range: %v", a)
	}
	if _, err := eval.M([]int{9}); err == nil {
		t.Fatal("expected error for out-of-range attribute")
	}
	if _, err := eval.M(nil); !errors.Is(err, ErrEmptyClique) {
		t.Fatalf("empty clique: err = %v, want ErrEmptyClique", err)
	}
}

func TestGreedyEndToEndOnGardenData(t *testing.T) {
	eval, top := gardenEvaluator(t, 6)
	p1, err := Greedy(top, eval, GreedyConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Greedy(top, eval, GreedyConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.Validate(6); err != nil {
		t.Fatal(err)
	}
	// Spatial correlation + expensive base: K=3 must not cost more than
	// singletons, and should report fewer expected values.
	if p3.TotalCost() > p1.TotalCost()+1e-9 {
		t.Fatalf("K=3 cost %v worse than K=1 %v", p3.TotalCost(), p1.TotalCost())
	}
	if p3.ExpectedReported() >= p1.ExpectedReported() {
		t.Fatalf("K=3 reports %v, K=1 reports %v", p3.ExpectedReported(), p1.ExpectedReported())
	}
}

func TestGreedyWithinFactorOfExhaustive(t *testing.T) {
	// The paper reports greedy within ~12% of optimal; allow 30% slack on
	// our small instance to keep the test robust.
	eval, top := gardenEvaluator(t, 5)
	exh, err := Exhaustive(top, eval, 3)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := Greedy(top, eval, GreedyConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if grd.TotalCost() > exh.TotalCost()*1.3+1e-9 {
		t.Fatalf("greedy %v not within 30%% of exhaustive %v", grd.TotalCost(), exh.TotalCost())
	}
	if exh.TotalCost() > grd.TotalCost()+1e-9 {
		t.Fatalf("exhaustive %v worse than greedy %v — DP broken", exh.TotalCost(), grd.TotalCost())
	}
}

// A partition is checked against the attribute count before anything is
// fitted on it: a clique set that does not cover every attribute is refused.
func TestLoadPartitionValidates(t *testing.T) {
	p := Partition{Cliques: []Clique{{Members: []int{0}, Root: 0}}}
	if err := p.Validate(2); err == nil {
		t.Fatal("expected coverage error")
	}
	if err := p.Validate(1); err != nil {
		t.Fatal(err)
	}
}

// Partition.Fit slices every clique's model from one Moments pass: each
// kernel's model is bit for bit FitLinearGaussian of its columns (the JSON
// form carries A, Q, the profile, the clock and the state, every float in
// its shortest exact form), with the clique's bounds and root beside it.
// Members are taken ascending whatever order the clique lists them in.
func TestPartitionFit(t *testing.T) {
	const n = 5
	train := make([][]float64, 100)
	for i, r := range datasetRows(t, "garden")[:len(train)] {
		train[i] = r[:n]
	}
	eps := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	fitCfg := model.FitConfig{Period: 24}
	direct := func(cols []int) string {
		proj := make([][]float64, len(train))
		for i, row := range train {
			proj[i] = mat.Select(row, cols)
		}
		lg, err := model.FitLinearGaussian(proj, fitCfg)
		if err != nil {
			t.Fatal(err)
		}
		return jsonOf(t, lg)
	}
	part := &Partition{Cliques: []Clique{
		{Members: []int{3, 1}, Root: 2},
		{Members: []int{0, 2, 4}, Root: 0},
	}}
	kernels, roots, err := part.Fit(train, eps, fitCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roots, []int{2, 0}) || len(kernels) != 2 {
		t.Fatalf("roots %v, %d kernels", roots, len(kernels))
	}
	for ci, want := range []struct {
		members []int
		eps     []float64
	}{
		{[]int{1, 3}, []float64{0.2, 0.4}},
		{[]int{0, 2, 4}, []float64{0.1, 0.3, 0.5}},
	} {
		k := kernels[ci]
		if !reflect.DeepEqual(k.Members(), want.members) || !reflect.DeepEqual(k.Eps(), want.eps) {
			t.Fatalf("clique %d: members %v eps %v, want %v %v", ci, k.Members(), k.Eps(), want.members, want.eps)
		}
		if got, want := jsonOf(t, k.Model()), direct(want.members); got != want {
			t.Fatalf("clique %d: sliced fit\n%s\ndirect fit\n%s", ci, got, want)
		}
	}
	if !reflect.DeepEqual(part.Cliques[0].Members, []int{3, 1}) {
		t.Fatalf("Fit reordered the partition's members: %v", part.Cliques[0].Members)
	}
	// [3 1] and [1 3] are one clique.
	sorted := &Partition{Cliques: []Clique{{Members: []int{1, 3}, Root: 2}, part.Cliques[1]}}
	again, _, err := sorted.Fit(train, eps, fitCfg)
	if err != nil {
		t.Fatal(err)
	}
	if jsonOf(t, again[0].Model()) != jsonOf(t, kernels[0].Model()) {
		t.Fatal("members listed [3 1] and [1 3] fit different kernels")
	}

	for name, tc := range map[string]struct {
		p   *Partition
		eps []float64
	}{
		"nil partition":      {nil, eps},
		"eps length":         {part, eps[:4]},
		"out-of-range":       {&Partition{Cliques: []Clique{{Members: []int{1, 7}}, {Members: []int{0, 2, 3, 4}}}}, eps},
		"uncovered":          {&Partition{Cliques: []Clique{{Members: []int{1, 3}}}}, eps},
		"empty clique":       {&Partition{Cliques: []Clique{{}, {Members: []int{0, 1, 2, 3, 4}}}}, eps},
		"non-positive bound": {part, []float64{0.1, 0, 0.3, 0.4, 0.5}},
	} {
		if _, _, err := tc.p.Fit(train, tc.eps, fitCfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := part.Fit(nil, eps, fitCfg); err == nil {
		t.Error("no training data: accepted")
	}
}

// jsonOf returns a fitted LinearGaussian's JSON form.
func jsonOf(t *testing.T, m model.Model) string {
	t.Helper()
	lg, ok := m.(*model.LinearGaussian)
	if !ok {
		t.Fatalf("%T is not a LinearGaussian", m)
	}
	b, err := lg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// bruteForceBest enumerates every partition of {0..n-1} (by recursive
// block assignment) and returns the minimum total cost under the evaluator
// and clique-size cap.
func bruteForceBest(t *testing.T, top *network.Topology, eval Evaluator, n, maxSize int) float64 {
	t.Helper()
	best := math.Inf(1)
	var blocks [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			total := 0.0
			for _, b := range blocks {
				c, err := BuildClique(top, eval, b)
				if err != nil {
					t.Fatal(err)
				}
				total += c.Cost()
			}
			if total < best {
				best = total
			}
			return
		}
		for bi := range blocks {
			if len(blocks[bi]) >= maxSize {
				continue
			}
			blocks[bi] = append(blocks[bi], i)
			rec(i + 1)
			blocks[bi] = blocks[bi][:len(blocks[bi])-1]
		}
		blocks = append(blocks, []int{i})
		rec(i + 1)
		blocks = blocks[:len(blocks)-1]
	}
	rec(0)
	return best
}

// TestExhaustiveMatchesBruteForce cross-checks the dynamic program against
// full partition enumeration with randomised submodular-ish oracles.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(3) // 4..6 attributes
		// Random topology: chain + random extra links.
		links := []network.Link{}
		for i := 0; i < n; i++ {
			links = append(links, network.Link{U: i, V: i + 1, Cost: 0.5 + rng.Float64()*2})
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n+1), rng.Intn(n+1)
			if u != v {
				links = append(links, network.Link{U: u, V: v, Cost: 0.5 + rng.Float64()*4})
			}
		}
		top, err := network.New(n, links)
		if err != nil {
			t.Fatal(err)
		}
		// Random deterministic oracle: m grows sublinearly with clique
		// size, scaled per member. Pure, because Exhaustive evaluates
		// cliques from several goroutines.
		scale := make([]float64, n)
		for i := range scale {
			scale[i] = 0.2 + rng.Float64()*0.6
		}
		eval := FuncEvaluator(func(clique []int) (float64, error) {
			m := 0.0
			for _, i := range clique {
				m += scale[i]
			}
			m *= 0.5 + 0.5/float64(len(clique)) // correlation discount
			return m, nil
		})
		maxSize := 2 + rng.Intn(2)
		p, err := Exhaustive(top, eval, maxSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(n); err != nil {
			t.Fatal(err)
		}
		want := bruteForceBest(t, top, eval, n, maxSize)
		if math.Abs(p.TotalCost()-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d, k=%d): DP cost %v, brute force %v",
				trial, n, maxSize, p.TotalCost(), want)
		}
	}
}

// TestReplanAfterTopologyChange exercises the §6 dynamic-topology loop:
// when a link degrades, rebuilding the topology and re-running Greedy-k
// yields a partition at least as cheap as keeping the stale one under the
// new costs.
func TestReplanAfterTopologyChange(t *testing.T) {
	links := []network.Link{
		{U: 0, V: 1, Cost: 1},
		{U: 1, V: 2, Cost: 1},
		{U: 2, V: 3, Cost: 1},
		{U: 3, V: 4, Cost: 1}, // vertex 4 is the base
		{U: 0, V: 4, Cost: 3},
	}
	top, err := network.New(4, links)
	if err != nil {
		t.Fatal(err)
	}
	eval := sharedEval(0.4)
	before, err := Greedy(top, eval, GreedyConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The 3→base link degrades badly.
	degradedLinks := append([]network.Link(nil), links...)
	degradedLinks[3].Cost = 20
	degraded, err := network.New(4, degradedLinks)
	if err != nil {
		t.Fatal(err)
	}
	replanned, err := Greedy(degraded, eval, GreedyConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Reprice the stale partition under the new topology.
	stale := 0.0
	for _, c := range before.Cliques {
		repriced, err := BuildClique(degraded, eval, c.Members)
		if err != nil {
			t.Fatal(err)
		}
		stale += repriced.Cost()
	}
	if replanned.TotalCost() > stale+1e-9 {
		t.Fatalf("replanning (%v) worse than stale plan (%v)", replanned.TotalCost(), stale)
	}
}

// TestGreedyParallelDeterminism: the worker-pool evaluation must produce
// the identical partition at any parallelism level.
func TestGreedyParallelDeterminism(t *testing.T) {
	eval, top := gardenEvaluator(t, 8)
	var want string
	for _, par := range []int{1, 2, 8} {
		// Fresh evaluator per run so the cache cannot mask ordering bugs.
		freshEval, freshTop := gardenEvaluator(t, 8)
		_ = freshTop
		p, err := Greedy(top, freshEval, GreedyConfig{K: 3, NeighborLimit: 5, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = p.String()
			continue
		}
		if p.String() != want {
			t.Fatalf("parallelism %d changed the partition: %s vs %s", par, p, want)
		}
	}
	_ = eval
}

// TestRuns pins the adjacent-run constructor against the hand-written loops
// it replaced: pairs rooted first (the figure harness, the lossy/streaming
// examples), runs of k rooted last (kennet, the lifetime experiments).
func TestRuns(t *testing.T) {
	for _, tc := range []struct {
		k     int
		first string
		last  string
	}{
		{1, "{0}@0 {1}@1 {2}@2 {3}@3 {4}@4 {5}@5 {6}@6 {7}@7 {8}@8 {9}@9 {10}@10",
			"{0}@0 {1}@1 {2}@2 {3}@3 {4}@4 {5}@5 {6}@6 {7}@7 {8}@8 {9}@9 {10}@10"},
		{2, "{0,1}@0 {2,3}@2 {4,5}@4 {6,7}@6 {8,9}@8 {10}@10",
			"{0,1}@1 {2,3}@3 {4,5}@5 {6,7}@7 {8,9}@9 {10}@10"},
		{3, "{0,1,2}@0 {3,4,5}@3 {6,7,8}@6 {9,10}@9",
			"{0,1,2}@2 {3,4,5}@5 {6,7,8}@8 {9,10}@10"},
		{11, "{0,1,2,3,4,5,6,7,8,9,10}@0", "{0,1,2,3,4,5,6,7,8,9,10}@10"},
		{12, "{0,1,2,3,4,5,6,7,8,9,10}@0", "{0,1,2,3,4,5,6,7,8,9,10}@10"},
	} {
		for end, want := range map[RootEnd]string{RootFirst: tc.first, RootLast: tc.last} {
			p, err := Runs(11, tc.k, end)
			if err != nil {
				t.Fatal(err)
			}
			if p.String() != want {
				t.Fatalf("Runs(11, %d, last=%v) = %s, want %s", tc.k, end, p, want)
			}
			if err := p.Validate(11); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Nothing but members and roots is filled in.
	p, _ := Runs(3, 2, RootLast)
	if want := []Clique{{Members: []int{0, 1}, Root: 1}, {Members: []int{2}, Root: 2}}; !reflect.DeepEqual(p.Cliques, want) {
		t.Fatalf("Runs(3, 2, RootLast) = %+v, want %+v", p.Cliques, want)
	}
	for _, bad := range [][2]int{{11, 0}, {11, -1}, {0, 2}} {
		if _, err := Runs(bad[0], bad[1], RootFirst); err == nil {
			t.Fatalf("Runs(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// TestGreedyFromTraining: the one-call selection is the evaluator, the
// default ×5 uniform topology and Greedy composed — what core.Build and
// deploy.Build each used to spell out.
func TestGreedyFromTraining(t *testing.T) {
	tr, err := trace.GenerateGarden(51, 150)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := tr.Experiment(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	fit, mcCfg := model.FitConfig{Period: 24}, mc.Config{Trajectories: 2, Horizon: 12, Seed: 1}
	gcfg := GreedyConfig{K: 2, Metric: MetricReduction}
	got, err := GreedyFromTraining(exp.Train, exp.Eps, fit, mcCfg, nil, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewMCEvaluator(exp.Train, exp.Eps, fit, mcCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Greedy(uniformTop(t, 11, 5), eval, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GreedyFromTraining = %s, composed by hand = %s", got, want)
	}
	if _, err := GreedyFromTraining(exp.Train, exp.Eps, fit, mcCfg, nil, GreedyConfig{K: 0}); err == nil {
		t.Fatal("expected error for K = 0")
	}
	if _, err := GreedyFromTraining(nil, nil, fit, mcCfg, nil, gcfg); err == nil {
		t.Fatal("expected error for empty training data")
	}
}
