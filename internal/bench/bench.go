// Package bench regenerates every figure of the paper's evaluation (§5)
// over the synthetic Lab and Garden deployments:
//
//	Fig 7/8   — dataset overviews (diurnal profiles, value ranges)
//	Fig 9/10  — % of data reported per scheme (topology-independent)
//	Fig 11    — Greedy-k vs Exhaustive-k partition cost
//	Fig 12    — total messaging cost on Garden under ×2/×5/×10 base cost
//	Fig 13    — total messaging cost on Lab east/central/west regions
//	Fig 14    — multi-attribute compression on a single node
//
// Each runner decomposes its figure into independent cells — one table row
// or row group per cell — and submits them to an engine.Engine, which runs
// them across a worker pool and deduplicates shared artifacts (generated
// traces, Monte Carlo evaluators, clique partitions) through its
// single-flight cache. Results come back in row order, so a parallel run is
// byte-identical to a sequential one (golden_test.go enforces this).
// cmd/kenbench prints the tables, and bench_test.go wraps the runners as
// testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/engine"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/trace"
)

// Runner regenerates one figure. A nil engine runs the cells sequentially
// with a private artifact cache; ctx cancels mid-figure.
type Runner func(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error)

// ensureEngine gives figure runners a non-nil engine: callers that do not
// care about parallelism (unit tests, one-shot invocations) pass nil and get
// a sequential engine whose cache still deduplicates artifacts within the
// figure.
func ensureEngine(eng *engine.Engine) *engine.Engine {
	if eng == nil {
		return engine.New(engine.Options{Workers: 1})
	}
	return eng
}

// cacheGet fetches a shared artifact through the engine cache, building it
// on first use. A nil engine builds directly (no caching).
func cacheGet[T any](eng *engine.Engine, key string, build func() (T, error)) (T, error) {
	if eng == nil {
		return build()
	}
	return engine.Get(eng.Cache(), key, build)
}

// Config sizes an experiment. The zero value is filled with paper-like
// defaults by withDefaults; Quick returns a configuration small enough for
// unit tests.
type Config struct {
	// Seed drives trace generation and Monte Carlo estimation.
	Seed int64
	// TrainSteps is the model-learning prefix (paper: 100 hours).
	TrainSteps int
	// TestSteps is the evaluation window (paper: 5000 hours; default 1500
	// to keep full runs minutes, not hours — pass more for paper scale).
	TestSteps int
	// MCTrajectories and MCHorizon size the §4.4 Monte Carlo estimate.
	MCTrajectories int
	MCHorizon      int
	// NeighborLimit caps Greedy-k candidate pools (see cliques.GreedyConfig).
	NeighborLimit int
	// Obs, when non-nil, receives every replay's metrics and protocol
	// events; cells scope their trace events by figure and cell index, so a
	// parallel run's trace audits identically to a sequential one. Obs is
	// runtime plumbing, not experiment identity — it never enters cache
	// keys.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TrainSteps <= 0 {
		c.TrainSteps = 100
	}
	if c.TestSteps <= 0 {
		c.TestSteps = 1500
	}
	if c.MCTrajectories <= 0 {
		c.MCTrajectories = 8
	}
	if c.MCHorizon <= 0 {
		c.MCHorizon = 48
	}
	if c.NeighborLimit <= 0 {
		c.NeighborLimit = 8
	}
	return c
}

// Quick returns a configuration small enough for unit tests while keeping
// every code path exercised.
func Quick() Config {
	return Config{
		Seed:           1,
		TrainSteps:     100,
		TestSteps:      250,
		MCTrajectories: 4,
		MCHorizon:      24,
		NeighborLimit:  4,
	}
}

// Table is a printable experiment result: the rows/series of one figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteMarkdown renders the table as a GitHub-flavoured markdown table,
// ready to paste into EXPERIMENTS.md.
func (t *Table) WriteMarkdown(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString("### ")
	sb.WriteString(t.Title)
	sb.WriteString("\n\n|")
	for _, c := range t.Columns {
		sb.WriteString(" ")
		sb.WriteString(c)
		sb.WriteString(" |")
	}
	sb.WriteString("\n|")
	for range t.Columns {
		sb.WriteString("---|")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString("|")
		for i := range t.Columns {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			sb.WriteString(" ")
			sb.WriteString(cell)
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		sb.WriteString("\n*")
		sb.WriteString(n)
		sb.WriteString("*\n")
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteTo renders the table as padded text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				for p := len(cell); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// dataset bundles everything an experiment needs from one deployment. key
// identifies the (deployment, seed, split) in engine cache keys; cells must
// treat every field as immutable — datasets are shared across workers.
type dataset struct {
	name        string
	key         string
	dep         *trace.Deployment
	train, test [][]float64 // temperature matrices
	eps         []float64
	full        *trace.Trace
}

// cachedTrace returns the shared generated trace for a named deployment,
// producing it once per (name, seed, steps) no matter how many cells ask.
func cachedTrace(eng *engine.Engine, name string, seed int64, steps int) (*trace.Trace, error) {
	key := fmt.Sprintf("trace:%s:seed=%d:steps=%d", name, seed, steps)
	return cacheGet(eng, key, func() (*trace.Trace, error) {
		return trace.GenerateNamed(name, seed, steps)
	})
}

// cachedGenerate returns the shared trace for a custom generator
// configuration (rate sweeps, drift splices). label names the deployment;
// the full GenConfig is folded into the key, so distinct settings never
// collide.
func cachedGenerate(eng *engine.Engine, label string, dep *trace.Deployment, gc trace.GenConfig) (*trace.Trace, error) {
	key := fmt.Sprintf("trace:%s:cfg=%+v", label, gc)
	return cacheGet(eng, key, func() (*trace.Trace, error) {
		return trace.Generate(dep, gc)
	})
}

// loadDataset generates (or fetches) a deployment trace and splits it. The
// returned dataset is shared across cells and must not be mutated.
func loadDataset(eng *engine.Engine, name string, cfg Config) (*dataset, error) {
	key := fmt.Sprintf("ds:%s:seed=%d:train=%d:test=%d", name, cfg.Seed, cfg.TrainSteps, cfg.TestSteps)
	return cacheGet(eng, key, func() (*dataset, error) {
		tr, err := cachedTrace(eng, name, cfg.Seed, cfg.TrainSteps+cfg.TestSteps)
		if err != nil {
			return nil, err
		}
		exp, err := tr.Experiment(cfg.TrainSteps, 0)
		if err != nil {
			return nil, err
		}
		return &dataset{
			name:  name,
			key:   key,
			dep:   tr.Deployment,
			train: exp.Train,
			test:  exp.Test,
			eps:   exp.Eps,
			full:  tr,
		}, nil
	})
}

// evaluator returns the shared Monte Carlo m_C estimator for the dataset
// plus its cache key (for composing dependent keys, e.g. partitions). The
// evaluator is internally synchronised and its estimates are deterministic
// per clique, so sharing it across cells cannot change any result.
func (d *dataset) evaluator(eng *engine.Engine, cfg Config) (*cliques.MCEvaluator, string, error) {
	mcCfg := mc.Config{Trajectories: cfg.MCTrajectories, Horizon: cfg.MCHorizon, Seed: cfg.Seed}
	key := fmt.Sprintf("eval:%s:train=%s:mc=%+v", d.key, engine.KeyMatrix(d.train), mcCfg)
	eval, err := cacheGet(eng, key, func() (*cliques.MCEvaluator, error) {
		return cliques.NewMCEvaluator(d.train, d.eps, model.FitConfig{Period: 24}, mcCfg)
	})
	return eval, key, err
}

// cachedGreedy returns the shared Greedy-k partition for (evaluator,
// topology, config), validated against n nodes. topoKey must identify how
// the topology was constructed.
func cachedGreedy(eng *engine.Engine, eval *cliques.MCEvaluator, evalKey string, top *network.Topology, topoKey string, gcfg cliques.GreedyConfig, n int) (*cliques.Partition, error) {
	key := fmt.Sprintf("part:greedy:%s:%s:cfg=%+v", evalKey, topoKey, gcfg)
	return cacheGet(eng, key, func() (*cliques.Partition, error) {
		p, err := cliques.Greedy(top, eval, gcfg)
		if err != nil {
			return nil, fmt.Errorf("bench: greedy k=%d: %w", gcfg.K, err)
		}
		if err := p.Validate(n); err != nil {
			return nil, err
		}
		return p, nil
	})
}

// subset restricts the dataset to the given node indices.
func (d *dataset) subset(nodes []int) *dataset {
	pick := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for t, row := range rows {
			r := make([]float64, len(nodes))
			for k, i := range nodes {
				r[k] = row[i]
			}
			out[t] = r
		}
		return out
	}
	eps := make([]float64, len(nodes))
	for k, i := range nodes {
		eps[k] = d.eps[i]
	}
	return &dataset{
		name:  d.name,
		key:   fmt.Sprintf("%s:sub=%v", d.key, nodes),
		dep:   d.dep,
		train: pick(d.train),
		test:  pick(d.test),
		eps:   eps,
		full:  d.full,
	}
}

// replay runs a scheme over the dataset's test rows, enforcing that
// deterministic schemes keep the ε guarantee. The run reports into
// cfg.Obs under the cell scope accumulated on ctx, so traces from
// concurrent cells stay attributable and auditable.
func (d *dataset) replay(ctx context.Context, cfg Config, s core.Scheme) (*core.Result, error) {
	return core.Run(ctx, s, d.test, core.RunOptions{
		Eps: d.eps, Observer: cfg.Obs, Scope: engine.Scope(ctx),
	})
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func f2(f float64) string { return fmt.Sprintf("%.2f", f) }
