package bench

import (
	"context"
	"fmt"

	"ken/internal/cliques"
	"ken/internal/engine"
	"ken/internal/network"
)

// Fig11 reproduces "Comparing Greedy-k and Exhaustive-k for various k": on
// the garden deployment (small enough for the dynamic program), both
// partitioners run with the same Monte Carlo evaluator and clique-size cap,
// and we report their expected total communication cost. The paper finds
// the greedy heuristic "very often within 12% of the optimal".
func Fig11(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error) {
	return fig11On(ctx, eng, "garden", 4, cfg)
}

func fig11On(ctx context.Context, eng *engine.Engine, name string, kmax int, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	eng = ensureEngine(eng)
	d, err := loadDataset(eng, name, cfg)
	if err != nil {
		return nil, err
	}
	eval, evalKey, err := d.evaluator(eng, cfg)
	if err != nil {
		return nil, err
	}
	// The paper's cost study uses the uniform garden topology with an
	// elevated base cost, where clique choice genuinely matters.
	top, err := network.Uniform(d.dep.N(), 1, 5)
	if err != nil {
		return nil, err
	}
	topoKey := fmt.Sprintf("topo:uniform:n=%d:base=5", d.dep.N())
	t := &Table{
		Title:   fmt.Sprintf("Fig 11: Greedy-k vs Exhaustive-k expected cost, %s (base cost ×5)", name),
		Columns: []string{"k", "greedy cost", "exhaustive cost", "greedy/optimal", "greedy max clique", "optimal max clique"},
	}
	ks := make([]int, 0, kmax)
	for k := 1; k <= kmax; k++ {
		ks = append(ks, k)
	}
	rows, err := engine.Map(ctx, eng, ks, func(ctx context.Context, _ int, k int) ([]string, error) {
		grd, err := cachedGreedy(eng, eval, evalKey, top, topoKey, cliques.GreedyConfig{
			K:             k,
			NeighborLimit: cfg.NeighborLimit,
		}, d.dep.N())
		if err != nil {
			return nil, err
		}
		exhKey := fmt.Sprintf("part:exhaustive:%s:%s:k=%d", evalKey, topoKey, k)
		exh, err := cacheGet(eng, exhKey, func() (*cliques.Partition, error) {
			return cliques.Exhaustive(top, eval, k)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: exhaustive k=%d: %w", k, err)
		}
		ratio := 1.0
		if exh.TotalCost() > 0 {
			ratio = grd.TotalCost() / exh.TotalCost()
		}
		return []string{fmt.Sprintf("%d", k),
			f2(grd.TotalCost()), f2(exh.TotalCost()),
			fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%d", grd.MaxCliqueSize()),
			fmt.Sprintf("%d", exh.MaxCliqueSize())}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper shape: greedy within ~12% of the optimal dynamic program",
		"cost is the expected per-step total (intra-source + source-sink)")
	return t, nil
}
