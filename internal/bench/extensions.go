package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/engine"
	"ken/internal/mat"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/protocol"
	"ken/internal/simnet"
	"ken/internal/stream"
	"ken/internal/trace"
)

// Extensions regenerates the beyond-the-paper results recorded in
// EXPERIMENTS.md: the §6 switching model on HVAC-affected lab data, the
// footnote-4 adaptive refitting under seasonal drift, distributed network
// lifetime on the packet simulator, and the streaming wire efficiency. Each
// experiment is one engine cell producing its own row group; the generated
// traces they share come from the engine cache.
func Extensions(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	eng = ensureEngine(eng)
	ctx = engine.WithScope(ctx, "ext")
	t := &Table{
		Title:   "Extensions: §6 and footnote-4 features, system-level results",
		Columns: []string{"experiment", "variant", "metric", "value"},
	}
	type experiment struct {
		name string
		fn   func(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error)
	}
	exps := []experiment{
		{"switching", extSwitching},
		{"adaptive", extAdaptive},
		{"probabilistic", extProbabilistic},
		{"lifetime", extLifetime},
		{"streaming", extStreaming},
		{"joint-multiattr", extJointMultiAttr},
	}
	chunks, err := engine.Map(ctx, eng, exps, func(ctx context.Context, _ int, e experiment) ([][]string, error) {
		rows, err := e.fn(ctx, eng, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: extension %s: %w", e.name, err)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range chunks {
		t.Rows = append(t.Rows, rows...)
	}
	t.Notes = append(t.Notes,
		"switching/adaptive: fraction of values reported (lower is better)",
		"lifetime: hourly epochs until the first battery death on an 11-node chain",
		"streaming: bytes on the wire for a garden SELECT * stream")
	return t, nil
}

// extSwitching compares the plain Gaussian and the regime-switching model
// on a lab clique inside one HVAC zone.
func extSwitching(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	tr, err := cachedTrace(eng, "lab", cfg.Seed, cfg.TrainSteps+cfg.TestSteps)
	if err != nil {
		return nil, err
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		return nil, err
	}
	// Nodes 0,1,7 share the west HVAC zone and sit close together.
	cols := mat.SelectCols(rows, []int{0, 1, 7})
	train, test := cols[:cfg.TrainSteps], cols[cfg.TrainSteps:]
	eps := []float64{0.5, 0.5, 0.5}

	plain, err := model.FitLinearGaussian(train, model.FitConfig{Period: 24})
	if err != nil {
		return nil, err
	}
	sw, err := model.FitSwitching(train, model.SwitchingConfig{Regimes: 2, Base: model.FitConfig{Period: 24}})
	if err != nil {
		return nil, err
	}
	pf, err := replayFraction(plain.Clone(), test, eps)
	if err != nil {
		return nil, err
	}
	sf, err := replayFraction(sw.Clone(), test, eps)
	if err != nil {
		return nil, err
	}
	out := [][]string{
		{"switching model (lab HVAC clique)", "plain Gaussian", "reported", pct(pf)},
		{"switching model (lab HVAC clique)", "2-regime switching", "reported", pct(sf)},
	}

	// Crisp two-level data (instant regime shifts, no diurnal smoothing):
	// the scenario where the model class decisively matters.
	crisp := regimeRows(cfg.Seed, cfg.TrainSteps+cfg.TestSteps)
	ctrain, ctest := crisp[:cfg.TrainSteps+200], crisp[cfg.TrainSteps+200:]
	ceps := []float64{0.5, 0.5}
	cplain, err := model.FitLinearGaussian(ctrain, model.FitConfig{})
	if err != nil {
		return nil, err
	}
	csw, err := model.FitSwitching(ctrain, model.SwitchingConfig{Regimes: 2})
	if err != nil {
		return nil, err
	}
	cpf, err := replayFraction(cplain.Clone(), ctest, ceps)
	if err != nil {
		return nil, err
	}
	csf, err := replayFraction(csw.Clone(), ctest, ceps)
	if err != nil {
		return nil, err
	}
	out = append(out,
		[]string{"switching model (crisp 2-level data)", "plain Gaussian", "reported", pct(cpf)},
		[]string{"switching model (crisp 2-level data)", "2-regime switching", "reported", pct(csf)})
	return out, nil
}

// regimeRows synthesises instantly-switching two-level data (the switching
// model's target regime, unlike the lab's lag-smoothed HVAC which a plain
// AR already tracks).
func regimeRows(seed int64, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, steps)
	level := 0.0
	w1, w2 := 0.0, 0.0
	for t := range data {
		if rng.Float64() < 0.02 {
			if level == 0 {
				level = -4
			} else {
				level = 0
			}
		}
		w1 = 0.7*w1 + 0.35*rng.NormFloat64()
		w2 = 0.7*w2 + 0.35*rng.NormFloat64()
		data[t] = []float64{20 + level + w1, 20.5 + level + w2}
	}
	return data
}

// extAdaptive compares static and adaptive models when the garden's
// climate shifts mid-stream (simulated by splicing two different seeds).
// Online refitting needs room to relearn (windows of days, multiple
// refits after the shift), so this experiment enforces its own minimum
// horizon regardless of the quick configuration.
func extAdaptive(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	testSteps := cfg.TestSteps
	if testSteps < 1200 {
		testSteps = 1200
	}
	a, err := cachedTrace(eng, "garden", cfg.Seed, cfg.TrainSteps+testSteps/2)
	if err != nil {
		return nil, err
	}
	warmCfg := trace.GardenConfig(cfg.Seed+1, testSteps-testSteps/2)
	warmCfg.TempBase += 2.5 // the drift: a warmer second half
	warm, err := cachedGenerate(eng, "garden", trace.GardenDeployment(), warmCfg)
	if err != nil {
		return nil, err
	}
	ra, err := a.Rows(trace.Temperature)
	if err != nil {
		return nil, err
	}
	rb, err := warm.Rows(trace.Temperature)
	if err != nil {
		return nil, err
	}
	first3 := []int{0, 1, 2}
	all := append(mat.SelectCols(ra, first3), mat.SelectCols(rb, first3)...)
	train, test := all[:cfg.TrainSteps], all[cfg.TrainSteps:]
	eps := []float64{0.5, 0.5, 0.5}

	lg, err := model.FitLinearGaussian(train, model.FitConfig{Period: 24})
	if err != nil {
		return nil, err
	}
	sf, err := replayFraction(lg.Clone(), test, eps)
	if err != nil {
		return nil, err
	}
	ad, err := model.NewAdaptive(lg, model.AdaptiveConfig{
		RefitEvery: 96, Window: 240, Fit: model.FitConfig{Period: 24}})
	if err != nil {
		return nil, err
	}
	af, err := replayFraction(ad.Clone(), test, eps)
	if err != nil {
		return nil, err
	}
	return [][]string{
		{"adaptive refit (garden, +2.5°C shift)", "static", "reported", pct(sf)},
		{"adaptive refit (garden, +2.5°C shift)", "adaptive", "reported", pct(af)},
	}, nil
}

// replayFraction runs the Ken source loop and returns the reported
// fraction.
func replayFraction(m model.Model, rows [][]float64, eps []float64) (float64, error) {
	replica, err := protocol.New(m, nil, eps)
	if err != nil {
		return 0, err
	}
	sent := 0
	for _, row := range rows {
		reported, err := replica.Advance(row)
		if err != nil {
			return 0, err
		}
		sent += reported
	}
	return float64(sent) / float64(len(rows)*len(eps)), nil
}

// extProbabilistic sweeps the §6 relaxed reporting function: lower
// steepness trades more ε violations for fewer reports; high steepness
// approaches the deterministic guarantee.
func extProbabilistic(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	d, err := loadDataset(eng, "garden", cfg)
	if err != nil {
		return nil, err
	}
	part, err := cliques.Runs(d.dep.N(), 2, cliques.RootFirst)
	if err != nil {
		return nil, err
	}
	var out [][]string
	run := func(prob *core.ProbConfig, label string) error {
		s, err := core.Build(core.SchemeSpec{
			Scheme:    "Ken",
			Name:      "DjC2",
			Partition: part,
			Train:     d.train,
			Eps:       d.eps,
			FitCfg:    model.FitConfig{Period: 24},
			Prob:      prob,
			Obs:       cfg.Obs,
		})
		if err != nil {
			return err
		}
		res, err := core.Run(ctx, s, d.test, core.RunOptions{Eps: d.eps, Observer: cfg.Obs, Scope: engine.Scope(ctx)})
		if err != nil {
			return err
		}
		out = append(out, []string{"probabilistic reporting (garden)", label, "reported / violations",
			fmt.Sprintf("%s / %.2f%%", pct(res.FractionReported()),
				100*float64(res.BoundViolations)/float64(res.Steps*res.Dim))})
		return nil
	}
	if err := run(nil, "deterministic"); err != nil {
		return nil, err
	}
	for _, steep := range []float64{5, 2, 1} {
		if err := run(&core.ProbConfig{Steepness: steep, Seed: cfg.Seed},
			fmt.Sprintf("steepness %.0f", steep)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// extLifetime runs the distributed programs on the packet simulator.
func extLifetime(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	d, err := loadDataset(eng, "garden", cfg)
	if err != nil {
		return nil, err
	}
	n := len(d.eps)
	top, err := network.Chain(n)
	if err != nil {
		return nil, err
	}
	radio := simnet.DefaultRadio()
	// Size the battery so TinyDB's hotspot dies about a third into the
	// window regardless of the configured test length.
	radio.BatteryJ = float64(cfg.TestSteps) / 3 * 11 * 40 * radio.TxPerByte
	radio.IdlePerEpoch = 1e-5
	part, err := cliques.Runs(n, 2, cliques.RootLast)
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, name := range []string{"tinydb", "ken"} {
		net, err := simnet.New(top, radio, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Each program gets its own trace scope so the auditor sees two
		// separate open segments rather than one interleaved stream. The
		// loop runs twice, at construction, each time instrumenting a fresh
		// network.
		net.Instrument(cfg.Obs.Scoped(engine.Scope(ctx)).Scoped(name))
		prog, err := simnet.NewProgram(name, net, part, d.train, d.eps, model.FitConfig{Period: 24}, simnet.KenNetConfig{})
		if err != nil {
			return nil, err
		}
		tot, err := simnet.Run(net, prog, d.test)
		if err != nil {
			return nil, err
		}
		val := fmt.Sprintf("%d", tot.FirstDeath)
		if tot.FirstDeath < 0 {
			val = fmt.Sprintf(">%d", tot.Epochs)
		}
		out = append(out, []string{"network lifetime (11-node chain)", name, "first death epoch", val})
	}
	return out, nil
}

// extStreaming measures wire bytes through the source→sink pipeline.
func extStreaming(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	d, err := loadDataset(eng, "garden", cfg)
	if err != nil {
		return nil, err
	}
	n := len(d.eps)
	part, err := cliques.Runs(n, 2, cliques.RootFirst)
	if err != nil {
		return nil, err
	}
	scfg := stream.Config{
		Partition: part, Train: d.train, Eps: d.eps,
		FitCfg: model.FitConfig{Period: 24},
	}
	src, err := stream.NewSource(scfg)
	if err != nil {
		return nil, err
	}
	sink, err := stream.NewReplica(scfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, row := range d.test {
		f, err := src.Collect(row)
		if err != nil {
			return nil, err
		}
		if err := stream.WriteFrame(&buf, f, src.Resolution()); err != nil {
			return nil, err
		}
	}
	wireBytes := buf.Len() // record before Serve drains the buffer
	if err := sink.Serve(&buf); err != nil {
		return nil, err
	}
	naive := len(d.test) * n * 10
	return [][]string{
		{"streaming wire bytes (garden)", "ken frames", "bytes", fmt.Sprintf("%d", wireBytes)},
		{"streaming wire bytes (garden)", "naive 10 B/reading", "bytes", fmt.Sprintf("%d", naive)},
	}, nil
}

// extJointMultiAttr runs the full SELECT * over all three attributes of
// every node as one collection problem: the physical topology is expanded
// to (node, attribute) logical vertices (network.Logical), so Greedy-k can
// build cliques that mix attributes on one node (zero intra cost, §5.5)
// with spatial neighbours. Compared against running the three attributes
// as independent Ken instances.
func extJointMultiAttr(ctx context.Context, eng *engine.Engine, cfg Config) ([][]string, error) {
	tr, err := cachedTrace(eng, "garden", cfg.Seed, cfg.TrainSteps+cfg.TestSteps)
	if err != nil {
		return nil, err
	}
	n := tr.Deployment.N()
	attrs := []trace.Attribute{trace.Temperature, trace.Humidity, trace.Voltage}
	k := len(attrs)

	// Logical training/test matrices: column node*k + attr.
	byAttr := make([][][]float64, k)
	for a, attr := range attrs {
		rows, err := tr.Rows(attr)
		if err != nil {
			return nil, err
		}
		byAttr[a] = rows
	}
	steps := cfg.TrainSteps + cfg.TestSteps
	all := make([][]float64, steps)
	eps := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for a, attr := range attrs {
			eps[i*k+a] = attr.DefaultEpsilon()
		}
	}
	for s := 0; s < steps; s++ {
		row := make([]float64, n*k)
		for i := 0; i < n; i++ {
			for a := 0; a < k; a++ {
				row[i*k+a] = byAttr[a][s][i]
			}
		}
		all[s] = row
	}
	train, test := all[:cfg.TrainSteps], all[cfg.TrainSteps:]

	// Independent baseline: each attribute collected alone with DjC2.
	indepReported, indepTotal := 0, 0
	for a := range attrs {
		cols := make([][]float64, steps)
		e := make([]float64, n)
		for i := range e {
			e[i] = attrs[a].DefaultEpsilon()
		}
		for s := 0; s < steps; s++ {
			r := make([]float64, n)
			for i := 0; i < n; i++ {
				r[i] = byAttr[a][s][i]
			}
			cols[s] = r
		}
		s, err := core.Build(core.SchemeSpec{
			Scheme:        "DjC2",
			Train:         cols[:cfg.TrainSteps],
			Eps:           e,
			FitCfg:        model.FitConfig{Period: 24},
			NeighborLimit: cfg.NeighborLimit,
			MC:            mcConfigFor(cfg),
			Metric:        cliques.MetricReduction,
			Obs:           cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		res, err := core.Run(ctx, s, cols[cfg.TrainSteps:], core.RunOptions{Eps: e, Observer: cfg.Obs, Scope: engine.Scope(ctx)})
		if err != nil {
			return nil, err
		}
		if res.BoundViolations != 0 {
			return nil, fmt.Errorf("bench: independent run violated ε")
		}
		indepReported += res.ValuesReported
		indepTotal += res.Steps * res.Dim
	}

	// Joint collection over the logical topology.
	phys, err := network.Uniform(n, 1, 5)
	if err != nil {
		return nil, err
	}
	logical, err := network.Logical(phys, k, 0.01)
	if err != nil {
		return nil, err
	}
	eval, err := cliques.NewMCEvaluator(train, eps, model.FitConfig{Period: 24}, mcConfigFor(cfg))
	if err != nil {
		return nil, err
	}
	p, err := cliques.Greedy(logical, eval, cliques.GreedyConfig{
		K: 4, NeighborLimit: cfg.NeighborLimit, Metric: cliques.MetricReduction})
	if err != nil {
		return nil, err
	}
	s, err := core.Build(core.SchemeSpec{
		Scheme:    "Ken",
		Name:      "DjC4",
		Partition: p,
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
		Obs:       cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	res, err := core.Run(ctx, s, test, core.RunOptions{Eps: eps, Observer: cfg.Obs, Scope: engine.Scope(ctx)})
	if err != nil {
		return nil, err
	}
	if res.BoundViolations != 0 {
		return nil, fmt.Errorf("bench: joint run violated ε")
	}
	return [][]string{
		{"joint multi-attribute (33 logical attrs)", "independent per-attr DjC2",
			"reported", pct(float64(indepReported) / float64(indepTotal))},
		{"joint multi-attribute (33 logical attrs)", "joint logical DjC4",
			"reported", pct(res.FractionReported())},
	}, nil
}

// mcConfigFor derives the shared Monte Carlo settings.
func mcConfigFor(cfg Config) mc.Config {
	return mc.Config{Trajectories: cfg.MCTrajectories, Horizon: cfg.MCHorizon, Seed: cfg.Seed}
}
