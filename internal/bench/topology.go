package bench

import (
	"context"
	"fmt"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/engine"
	"ken/internal/model"
	"ken/internal/network"
)

// costCell is one Fig 12/13 row: a scheme replayed on a dataset under a
// priced topology. k = 0 means Approximate Caching; k >= 1 means DjC<k>
// with a cached Greedy-k partition.
type costCell struct {
	label   string
	d       *dataset
	top     *network.Topology
	topoKey string
	k       int
}

// Fig12 reproduces "Total communication cost for the garden dataset under
// different network topologies": the cost to the base is swept over ×2, ×5
// and ×10 the pairwise node cost, and for each topology we replay ApC and
// Ken with Greedy-k partitions for k = 1..5, decomposing the measured cost
// into intra-source and source-sink components.
func Fig12(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	eng = ensureEngine(eng)
	ctx = engine.WithScope(ctx, "fig12")
	d, err := loadDataset(eng, "garden", cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Fig 12: total messaging cost per step, garden (%d test steps)", len(d.test)),
		Columns: []string{"base cost", "scheme", "intra", "inter", "total", "max clique"},
	}
	var cells []costCell
	for _, mult := range []float64{2, 5, 10} {
		top, err := network.Uniform(d.dep.N(), 1, mult)
		if err != nil {
			return nil, err
		}
		topoKey := fmt.Sprintf("topo:uniform:n=%d:base=%.0f", d.dep.N(), mult)
		cells = append(cells, topologyCells(d, top, topoKey, fmt.Sprintf("x%.0f", mult), 5)...)
	}
	rows, err := runCostCells(ctx, eng, cfg, cells)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper shape: larger cliques pay off as the base cost multiplier grows, then level off",
		"intra/inter are per-step averages over the replayed test trace")
	return t, nil
}

// Fig13 reproduces "Total communication cost for the Lab deployment
// partitioned into three node groups, east, central and west": each region
// is evaluated with its own cost-to-base multiplier (×1.5 / ×3 / ×6,
// reflecting the base station at the east end).
func Fig13(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	eng = ensureEngine(eng)
	ctx = engine.WithScope(ctx, "fig13")
	d, err := loadDataset(eng, "lab", cfg)
	if err != nil {
		return nil, err
	}
	regions := network.LabRegions(d.dep)
	t := &Table{
		Title:   fmt.Sprintf("Fig 13: total messaging cost per step, lab regions (%d test steps)", len(d.test)),
		Columns: []string{"region", "scheme", "intra", "inter", "total", "max clique"},
	}
	var cells []costCell
	for _, reg := range regions {
		sub := d.subset(reg.Nodes)
		top, err := network.Uniform(len(reg.Nodes), 1, reg.BaseMultiplier)
		if err != nil {
			return nil, err
		}
		topoKey := fmt.Sprintf("topo:uniform:n=%d:base=%.1f", len(reg.Nodes), reg.BaseMultiplier)
		label := fmt.Sprintf("%s x%.1f", reg.Name, reg.BaseMultiplier)
		cells = append(cells, topologyCells(sub, top, topoKey, label, 5)...)
	}
	rows, err := runCostCells(ctx, eng, cfg, cells)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper shape: regions close to the base gain nothing from larger cliques;",
		"the far (west) region gains modestly — lab data is harder to predict than garden")
	return t, nil
}

// topologyCells enumerates the ApC + DjC1..kmax rows for one priced
// topology, in the order the paper's figure lists them.
func topologyCells(d *dataset, top *network.Topology, topoKey, label string, kmax int) []costCell {
	cells := []costCell{{label: label, d: d, top: top, topoKey: topoKey, k: 0}}
	for k := 1; k <= kmax; k++ {
		cells = append(cells, costCell{label: label, d: d, top: top, topoKey: topoKey, k: k})
	}
	return cells
}

// runCostCells replays every cell through the engine and formats the
// per-step cost rows.
func runCostCells(ctx context.Context, eng *engine.Engine, cfg Config, cells []costCell) ([][]string, error) {
	return engine.Map(ctx, eng, cells, func(ctx context.Context, _ int, c costCell) ([]string, error) {
		steps := float64(len(c.d.test))
		spec := core.SchemeSpec{
			Eps:      c.d.eps,
			Train:    c.d.train,
			FitCfg:   model.FitConfig{Period: 24},
			Topology: c.top,
			Obs:      cfg.Obs,
		}
		maxClique := "1"
		if c.k == 0 {
			spec.Scheme = "ApproxCache"
		} else {
			p, err := c.d.greedyOn(eng, cfg, c.top, c.topoKey, c.k)
			if err != nil {
				return nil, fmt.Errorf("bench: greedy k=%d (%s): %w", c.k, c.label, err)
			}
			spec.Scheme = fmt.Sprintf("DjC%d", c.k)
			spec.Partition = p
			maxClique = fmt.Sprintf("%d", p.MaxCliqueSize())
		}
		s, err := core.Build(spec)
		if err != nil {
			return nil, err
		}
		res, err := c.d.replay(ctx, cfg, s)
		if err != nil {
			return nil, err
		}
		if c.k > 0 && res.BoundViolations != 0 {
			return nil, fmt.Errorf("bench: %s violated ε %d times on %s", s.Name(), res.BoundViolations, c.label)
		}
		return []string{c.label, s.Name(), f2(res.IntraCost / steps), f2(res.SinkCost / steps),
			f2(res.TotalCost() / steps), maxClique}, nil
	})
}

// greedyOn selects (or fetches) the Greedy-k partition for this dataset on
// an explicit topology, sharing evaluator and partition via the engine
// cache.
func (d *dataset) greedyOn(eng *engine.Engine, cfg Config, top *network.Topology, topoKey string, k int) (*cliques.Partition, error) {
	eval, evalKey, err := d.evaluator(eng, cfg)
	if err != nil {
		return nil, err
	}
	return cachedGreedy(eng, eval, evalKey, top, topoKey, cliques.GreedyConfig{
		K:             k,
		NeighborLimit: cfg.NeighborLimit,
	}, len(d.eps))
}
