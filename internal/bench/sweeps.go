package bench

import (
	"context"
	"fmt"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/engine"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/trace"
)

// Sweeps backs the paper's §5.1 remark that "we also experimented with
// other various sampling rates and bounds, and observed very similar
// performance trends": it sweeps the error bound ε and the sampling
// interval on the garden dataset and reports ApC and DjC2 reporting rates
// for each setting. Every (sweep, setting) pair is one engine cell.
func Sweeps(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	eng = ensureEngine(eng)
	t := &Table{
		Title:   "Sweeps: error bound and sampling rate (garden, ApC vs DjC2)",
		Columns: []string{"sweep", "setting", "ApC reported", "DjC2 reported", "DjC2/ApC"},
	}
	epsRows, err := sweepEpsilon(ctx, eng, cfg)
	if err != nil {
		return nil, err
	}
	rateRows, err := sweepRate(ctx, eng, cfg)
	if err != nil {
		return nil, err
	}
	t.Rows = append(epsRows, rateRows...)
	t.Notes = append(t.Notes,
		"paper §5.1: trends are stable across bounds and rates — Ken's advantage persists",
		"looser ε and faster sampling both reduce the reported fraction")
	return t, nil
}

// runPair replays ApC and DjC2 on the rows at the given ε and seasonal
// period, returning their reported fractions. Both replays trace into ob
// under the cell's scope, so a sweep's trace segments audit per setting.
func runPair(ctx context.Context, ob *obs.Observer, train, test [][]float64, epsVal float64, period int) (apc, djc float64, err error) {
	n := len(train[0])
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = epsVal
	}
	cache, err := core.Build(core.SchemeSpec{Scheme: "ApproxCache", Eps: eps, Obs: ob})
	if err != nil {
		return 0, 0, err
	}
	cres, err := core.Run(ctx, cache, test, core.RunOptions{Eps: eps, Observer: ob, Scope: engine.Scope(ctx)})
	if err != nil {
		return 0, 0, err
	}
	part, err := cliques.Runs(n, 2, cliques.RootFirst)
	if err != nil {
		return 0, 0, err
	}
	ken, err := core.Build(core.SchemeSpec{
		Scheme:    "Ken",
		Partition: part,
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: period},
		Obs:       ob,
	})
	if err != nil {
		return 0, 0, err
	}
	kres, err := core.Run(ctx, ken, test, core.RunOptions{Eps: eps, Observer: ob, Scope: engine.Scope(ctx)})
	if err != nil {
		return 0, 0, err
	}
	if kres.BoundViolations != 0 {
		return 0, 0, fmt.Errorf("bench: sweep run violated ε")
	}
	return cres.FractionReported(), kres.FractionReported(), nil
}

// sweepEpsilon varies the error bound at the hourly rate, one cell per
// bound over the shared garden dataset.
func sweepEpsilon(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	ctx = engine.WithScope(ctx, "sweep-eps")
	d, err := loadDataset(eng, "garden", cfg)
	if err != nil {
		return nil, err
	}
	bounds := []float64{0.1, 0.25, 0.5, 1.0, 2.0}
	return engine.Map(ctx, eng, bounds, func(ctx context.Context, _ int, e float64) ([]string, error) {
		apc, djc, err := runPair(ctx, cfg.Obs, d.train, d.test, e, 24)
		if err != nil {
			return nil, err
		}
		return []string{"ε bound", fmt.Sprintf("±%.2f°C", e), pct(apc), pct(djc),
			fmt.Sprintf("%.2f", safeRatio(djc, apc))}, nil
	})
}

// sweepRate varies the sampling interval at ε = 0.5 °C, one cell per rate.
// Faster sampling means smaller per-step changes, so every scheme reports a
// smaller fraction (the paper's FREQ f knob). Each cell's custom-rate trace
// comes from the engine cache.
func sweepRate(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	type rateSetting struct {
		label   string
		minutes float64
		period  int
	}
	settings := []rateSetting{
		{"every 30 min", 30, 48},
		{"hourly", 60, 24},
		{"every 2 h", 120, 12},
	}
	ctx = engine.WithScope(ctx, "sweep-rate")
	return engine.Map(ctx, eng, settings, func(ctx context.Context, _ int, sc rateSetting) ([]string, error) {
		gc := trace.GardenConfig(cfg.Seed, cfg.TrainSteps+cfg.TestSteps)
		gc.StepMinutes = sc.minutes
		tr, err := cachedGenerate(eng, "garden", trace.GardenDeployment(), gc)
		if err != nil {
			return nil, err
		}
		rows, err := tr.Rows(trace.Temperature)
		if err != nil {
			return nil, err
		}
		train, test := rows[:cfg.TrainSteps], rows[cfg.TrainSteps:]
		apc, djc, err := runPair(ctx, cfg.Obs, train, test, 0.5, sc.period)
		if err != nil {
			return nil, err
		}
		return []string{"sampling rate", sc.label, pct(apc), pct(djc),
			fmt.Sprintf("%.2f", safeRatio(djc, apc))}, nil
	})
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
