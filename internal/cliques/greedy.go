package cliques

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
)

// Metric selects the score Greedy uses to rank candidate cliques.
type Metric int

const (
	// MetricCost (default) minimises expected total communication cost per
	// attribute — intra-source plus source-sink with the best root. This is
	// the objective of the optimisation problem in §3.3.
	MetricCost Metric = iota
	// MetricReduction maximises per-attribute data reduction
	// (|C| − m_C)/|C|, the topology-blind score in the paper's Fig 6
	// pseudocode.
	MetricReduction
)

// GreedyConfig parameterises the Greedy-k heuristic.
type GreedyConfig struct {
	// K is the maximum clique size (the k of Greedy-k). Must be >= 1.
	K int
	// PruneFraction implements Fig 6's distance rule: a candidate clique is
	// discarded when it contains a pair with comm(a,b) >= PruneFraction ×
	// max-pair-cost. Zero defaults to the paper's ¼. The rule is skipped in
	// degenerate topologies where every pair is equidistant (it would prune
	// everything, including in the paper's own uniform garden topology).
	PruneFraction float64
	// NeighborLimit caps the candidate pool around each seed attribute to
	// its cheapest-to-reach uncovered neighbours, keeping the enumeration
	// polynomial on large networks. Zero defaults to 10.
	NeighborLimit int
	// Metric ranks candidates; the default is MetricCost.
	Metric Metric
	// Parallelism bounds the worker pool evaluating candidate cliques
	// (each evaluation is an independent Monte Carlo run). Zero defaults
	// to GOMAXPROCS. Results are deterministic regardless of the setting:
	// candidates are scored concurrently but selected in enumeration
	// order, and each clique's Monte Carlo seed is derived from its
	// members. The setting only moves how much Monte Carlo work is cut:
	// a worker stops an estimate once its candidate is strictly worse
	// than the best one the round has scored in full, and which ones are
	// scored by then depends on the schedule; the winner and every tie
	// with it are never stopped.
	Parallelism int
}

func (c GreedyConfig) withDefaults() GreedyConfig {
	if c.PruneFraction <= 0 {
		c.PruneFraction = 0.25
	}
	if c.NeighborLimit <= 0 {
		c.NeighborLimit = 10
	}
	return c
}

// Greedy runs the Greedy-k heuristic (Fig 6): repeatedly take the lowest
// uncovered attribute as seed, enumerate candidate cliques containing it
// (built from the seed's nearest uncovered neighbours, up to size K, after
// distance pruning), score them, and commit the best.
func Greedy(top *network.Topology, eval Evaluator, cfg GreedyConfig) (*Partition, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("cliques: greedy K %d < 1", cfg.K)
	}
	cfg = cfg.withDefaults()
	n := top.N()

	// The pruning threshold; disabled when the topology is pair-degenerate.
	maxPair := top.MaxPairCost()
	threshold := cfg.PruneFraction * maxPair
	if degeneratePairs(top) {
		threshold = maxPair + 1 // never prunes
	}

	covered := make([]bool, n)
	remaining := n
	p := &Partition{}
	for remaining > 0 {
		seed := -1
		for i := 0; i < n; i++ {
			if !covered[i] {
				seed = i
				break
			}
		}
		pool := nearestUncovered(top, seed, covered, cfg.NeighborLimit)
		best, err := bestCliqueAround(top, eval, seed, pool, cfg, threshold)
		if err != nil {
			return nil, err
		}
		p.Cliques = append(p.Cliques, best)
		for _, i := range best.Members {
			covered[i] = true
			remaining--
		}
	}
	return p, nil
}

// GreedyFromTraining selects a Greedy-k partition from training data alone:
// m_C comes from Monte Carlo runs over models fitted to train, and a nil top
// stands for the uniform topology with a ×5 base multiplier the paper's cost
// study centres on.
func GreedyFromTraining(train [][]float64, eps []float64, fitCfg model.FitConfig, mcCfg mc.Config, top *network.Topology, cfg GreedyConfig) (*Partition, error) {
	eval, err := NewMCEvaluator(train, eps, fitCfg, mcCfg)
	if err != nil {
		return nil, err
	}
	if top == nil {
		if top, err = network.Uniform(len(eps), 1, 5); err != nil {
			return nil, err
		}
	}
	return Greedy(top, eval, cfg)
}

// degeneratePairs reports whether all sensor pairs have (nearly) identical
// communication cost.
func degeneratePairs(top *network.Topology) bool {
	n := top.N()
	first := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := top.Comm(i, j)
			if first < 0 {
				first = c
			} else if c != first {
				return false
			}
		}
	}
	return true
}

// nearestUncovered returns up to limit uncovered attributes (excluding
// seed) ordered by communication cost from seed.
func nearestUncovered(top *network.Topology, seed int, covered []bool, limit int) []int {
	type cand struct {
		node int
		cost float64
	}
	var cands []cand
	for i := 0; i < top.N(); i++ {
		if i == seed || covered[i] {
			continue
		}
		cands = append(cands, cand{node: i, cost: top.Comm(seed, i)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].node < cands[b].node
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// bestCliqueAround scores every candidate clique {seed} ∪ S, S ⊆ pool,
// |S| < K, and returns the best. Candidates are enumerated first (with
// pruning applied), evaluated concurrently, and selected in enumeration
// order so the result is independent of scheduling. A candidate whose
// estimate stopped because one already scored beats it strictly drops out
// of the selection; it could not have been chosen. The singleton {seed}
// is always a candidate, so the search cannot fail.
func bestCliqueAround(top *network.Topology, eval Evaluator, seed int, pool []int, cfg GreedyConfig, pruneThreshold float64) (Clique, error) {
	candidates := enumerateCandidates(top, seed, pool, cfg.K, pruneThreshold)
	if len(candidates) == 0 {
		return Clique{}, fmt.Errorf("cliques: no candidate clique for seed %d", seed)
	}

	built := make([]Clique, len(candidates))
	beaten := make([]bool, len(candidates))
	errs := make([]error, len(candidates))
	board := &scoreBoard{metric: cfg.Metric}
	forEach(len(candidates), cfg.Parallelism, func(i int) {
		built[i], beaten[i], errs[i] = buildWithin(top, eval, candidates[i], board)
	})

	var best Clique
	bestScore := 0.0
	have := false
	for i := range candidates {
		if errs[i] != nil {
			return Clique{}, errs[i]
		}
		if beaten[i] {
			continue // strictly worse than a candidate scored in full
		}
		score := scoreOf(built[i], cfg.Metric)
		if !have || better(score, bestScore, cfg.Metric) {
			best, bestScore, have = built[i], score, true
		}
	}
	return best, nil
}

// forEach calls f(i) for every i in [0, n) on up to workers goroutines
// (GOMAXPROCS when workers <= 0) and returns once every call has. Callers
// write each result into slot i, so the outcome does not depend on which
// worker ran which index.
func forEach(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// scoreBoard is the best score among a round's candidates scored in full,
// shared by the round's workers. A nil board holds none.
type scoreBoard struct {
	metric Metric
	mu     sync.Mutex
	score  float64
	have   bool
}

// best returns the best score so far, if any.
func (b *scoreBoard) best() (float64, bool) {
	if b == nil {
		return 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.score, b.have
}

// offer records a clique scored in full.
func (b *scoreBoard) offer(c Clique) {
	if b == nil {
		return
	}
	score := scoreOf(c, b.metric)
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.have || better(score, b.score, b.metric) {
		b.score, b.have = score, true
	}
}

// reportLimit returns the most values a clique's Monte Carlo run may report
// over epochs and still not score strictly worse than best: the largest L
// whose m_C = L/epochs — the division the estimate makes — gives a clique,
// placed and scored by the code that scores a built one, that best does not
// strictly beat. Both scores are monotone in m (placeRoot's cost never falls
// as m grows; scoreOf divides it, or |C| − m, by |C|), so the clique is
// beaten from some L on and a binary search finds it. It is -1 when even a
// run that reports nothing is beaten, and mc.NoLimit when a report of every
// member at every epoch is not.
func reportLimit(top *network.Topology, members []int, intra []float64, epochs int, best float64, metric Metric) int {
	most := epochs * len(members)
	first := sort.Search(most+1, func(reports int) bool {
		c := placeRoot(top, members, intra, float64(reports)/float64(epochs))
		return better(best, scoreOf(c, metric), metric)
	})
	if first > most {
		return mc.NoLimit
	}
	return first - 1
}

// enumerateCandidates lists every unpruned candidate clique containing the
// seed, in deterministic enumeration order.
func enumerateCandidates(top *network.Topology, seed int, pool []int, k int, pruneThreshold float64) [][]int {
	maxExtra := k - 1
	if maxExtra > len(pool) {
		maxExtra = len(pool)
	}
	var out [][]int
	members := make([]int, 0, k)
	var walk func(start, picked int)
	walk = func(start, picked int) {
		clique := append([]int{seed}, members...)
		if !pruned(top, clique, pruneThreshold) {
			out = append(out, clique)
		}
		if picked == maxExtra {
			return
		}
		for i := start; i < len(pool); i++ {
			members = append(members, pool[i])
			walk(i+1, picked+1)
			members = members[:len(members)-1]
		}
	}
	walk(0, 0)
	return out
}

// pruned applies Fig 6's distance rule to a candidate clique.
func pruned(top *network.Topology, clique []int, threshold float64) bool {
	for i := 0; i < len(clique); i++ {
		for j := i + 1; j < len(clique); j++ {
			if top.Comm(clique[i], clique[j]) >= threshold {
				return true
			}
		}
	}
	return false
}

// scoreOf computes the metric value for a clique.
func scoreOf(c Clique, metric Metric) float64 {
	size := float64(len(c.Members))
	switch metric {
	case MetricReduction:
		return (size - c.M) / size
	default:
		return c.Cost() / size
	}
}

// better reports whether score a beats b under the metric's orientation.
func better(a, b float64, metric Metric) bool {
	if metric == MetricReduction {
		return a > b
	}
	return a < b
}
