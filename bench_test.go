// Package ken_test hosts the benchmark harness: one testing.B benchmark per
// paper figure (regenerating its rows; see EXPERIMENTS.md for recorded
// outputs) plus ablation benchmarks for the design choices called out in
// DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report domain metrics (reported fraction, cost) via
// b.ReportMetric alongside wall-clock time.
package ken_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ken/internal/bench"
	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/deploy"
	"ken/internal/gauss"
	"ken/internal/mat"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/protocol"
	"ken/internal/simnet"
	"ken/internal/stream"
	"ken/internal/trace"
	"ken/internal/wire"
)

// benchCfg sizes the figure regenerations for benchmarking: smaller than a
// full kenbench run, larger than the unit-test Quick config.
func benchCfg() bench.Config {
	return bench.Config{
		Seed:           1,
		TrainSteps:     100,
		TestSteps:      500,
		MCTrajectories: 6,
		MCHorizon:      36,
		NeighborLimit:  6,
	}
}

// runFigure drives a figure runner b.N times. Each iteration gets a nil
// engine (sequential, cold cache) so the benchmark measures full figure
// regeneration, as before the engine existed.
func runFigure(b *testing.B, fn bench.Runner) *bench.Table {
	b.Helper()
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := fn(context.Background(), nil, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	return last
}

// metricFromRow extracts a percentage cell ("35.3%") as a fraction.
func metricFromRow(b *testing.B, t *bench.Table, label string, col int) float64 {
	b.Helper()
	for _, row := range t.Rows {
		if row[0] == label {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				b.Fatal(err)
			}
			return v / 100
		}
	}
	b.Fatalf("row %q missing", label)
	return 0
}

func BenchmarkFig07LabOverview(b *testing.B) {
	runFigure(b, bench.Fig7)
}

func BenchmarkFig08GardenOverview(b *testing.B) {
	runFigure(b, bench.Fig8)
}

func BenchmarkFig09GardenReported(b *testing.B) {
	t := runFigure(b, bench.Fig9)
	b.ReportMetric(metricFromRow(b, t, "DjC1", 1), "DjC1-frac")
	b.ReportMetric(metricFromRow(b, t, "DjC6", 1), "DjC6-frac")
}

func BenchmarkFig10LabReported(b *testing.B) {
	t := runFigure(b, bench.Fig10)
	b.ReportMetric(metricFromRow(b, t, "DjC1", 1), "DjC1-frac")
	b.ReportMetric(metricFromRow(b, t, "DjC5", 1), "DjC5-frac")
}

func BenchmarkFig11GreedyVsExhaustive(b *testing.B) {
	t := runFigure(b, bench.Fig11)
	// Last row (largest k): greedy/optimal ratio.
	ratio, err := strconv.ParseFloat(t.Rows[len(t.Rows)-1][3], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(ratio, "greedy/optimal")
}

func BenchmarkFig12GardenTopology(b *testing.B) {
	runFigure(b, bench.Fig12)
}

func BenchmarkFig13LabRegions(b *testing.B) {
	runFigure(b, bench.Fig13)
}

func BenchmarkFig14MultiAttribute(b *testing.B) {
	runFigure(b, bench.Fig14)
}

// --- Ablation benchmarks -------------------------------------------------

// gardenClique fits a LinearGaussian over the first k garden nodes.
func gardenClique(b *testing.B, k, steps int) (*model.LinearGaussian, [][]float64, []float64) {
	b.Helper()
	tr, err := trace.GenerateGarden(5, steps)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		b.Fatal(err)
	}
	cols := make([][]float64, len(rows))
	for i, r := range rows {
		cols[i] = r[:k]
	}
	mdl, err := model.FitLinearGaussian(cols[:100], model.FitConfig{Period: 24})
	if err != nil {
		b.Fatal(err)
	}
	eps := make([]float64, k)
	for i := range eps {
		eps[i] = 0.5
	}
	return mdl, cols[100:], eps
}

// replayReported runs the Ken loop over rows on a fresh replica of mdl and
// returns the number of values reported.
func replayReported(b *testing.B, mdl model.Model, rows [][]float64, eps []float64) int {
	b.Helper()
	replica, err := protocol.New(mdl.Clone(), nil, eps)
	if err != nil {
		b.Fatal(err)
	}
	sent := 0
	for _, row := range rows {
		n, err := replica.Advance(row)
		if err != nil {
			b.Fatal(err)
		}
		sent += n
	}
	return sent
}

// BenchmarkAblationSubsetSearch compares the greedy minimal-report search
// with exhaustive subset enumeration on a 5-attribute clique (§3.2 step
// 4(a)).
func BenchmarkAblationSubsetSearch(b *testing.B) {
	mdl, test, eps := gardenClique(b, 5, 300)
	one := &cliques.Partition{Cliques: []cliques.Clique{{Members: []int{0, 1, 2, 3, 4}}}}
	for _, mode := range []struct {
		name       string
		exhaustive bool
	}{{"greedy", false}, {"exhaustive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := core.NewKen(core.KenConfig{
					Partition: one, Train: test, Eps: eps, Exhaustive: mode.exhaustive,
					ModelFactory: func([][]float64) (model.Model, error) { return mdl.Clone(), nil },
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Run(context.Background(), s, test, core.RunOptions{Eps: eps})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FractionReported(), "frac-reported")
			}
		})
	}
}

// BenchmarkAblationMCSamples studies partition quality versus Monte Carlo
// effort (§4.4): more trajectories stabilise the m_C estimates the greedy
// partitioner consumes.
func BenchmarkAblationMCSamples(b *testing.B) {
	tr, err := trace.GenerateGarden(5, 200)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		b.Fatal(err)
	}
	train := rows[:100]
	eps := make([]float64, tr.Deployment.N())
	for i := range eps {
		eps[i] = 0.5
	}
	top, err := network.Uniform(tr.Deployment.N(), 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, traj := range []int{2, 8, 32} {
		b.Run("traj="+strconv.Itoa(traj), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval, err := cliques.NewMCEvaluator(train, eps, model.FitConfig{Period: 24},
					mc.Config{Trajectories: traj, Horizon: 36, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				p, err := cliques.Greedy(top, eval, cliques.GreedyConfig{K: 3, NeighborLimit: 6})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(p.TotalCost(), "partition-cost")
			}
		})
	}
}

// BenchmarkAblationPruning measures the Fig 6 distance-pruning rule: how
// much partitioning time it saves on a geometric lab topology.
func BenchmarkAblationPruning(b *testing.B) {
	tr, err := trace.GenerateLab(5, 200)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		b.Fatal(err)
	}
	n := 20 // a lab subset keeps the no-pruning arm tractable
	train := make([][]float64, 100)
	for i := range train {
		train[i] = rows[i][:n]
	}
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	links := make([]network.Link, 0, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links = append(links, network.Link{U: i, V: j,
				Cost: 0.5 + tr.Deployment.Nodes[i].Distance(tr.Deployment.Nodes[j])/6})
		}
		links = append(links, network.Link{U: i, V: n, Cost: 6})
	}
	top, err := network.New(n, links)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		prune float64
	}{{"pruned", 0.25}, {"unpruned", 1000}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval, err := cliques.NewMCEvaluator(train, eps, model.FitConfig{Period: 24},
					mc.Config{Trajectories: 4, Horizon: 24, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				p, err := cliques.Greedy(top, eval, cliques.GreedyConfig{
					K: 4, NeighborLimit: 8, PruneFraction: arm.prune})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(p.TotalCost(), "partition-cost")
			}
		})
	}
}

// BenchmarkAblationConditioning compares the production conditioning path
// (Cholesky solves, no explicit inverse) against a naive implementation
// that inverts Σ_bb explicitly.
func BenchmarkAblationConditioning(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	dims := []int{4, 8, 16}
	for _, n := range dims {
		g := randomGaussian(b, rng, n)
		idx := make([]int, n/2)
		vals := make([]float64, n/2)
		for i := range idx {
			idx[i], vals[i] = i, rng.NormFloat64()
		}
		b.Run("cholesky/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := g.Condition(idx, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("inverse/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := conditionViaInverse(g, idx, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scratchSearchModel hides model.IncrementalConditioner, forcing the
// kernel's search onto the from-scratch MeanGiven reference path.
type scratchSearchModel struct{ model.Model }

// BenchmarkAblationIncrementalSearch compares the greedy report search
// through the cached incremental conditioning evaluator (grow one Cholesky
// factor by a row per round) against the from-scratch reference path
// (refactorize the observed block every round) on the same clique state.
// Both arms choose identical report sets; only the evaluation cost
// differs.
func BenchmarkAblationIncrementalSearch(b *testing.B) {
	for _, k := range []int{4, 8} {
		mdl, test, eps := gardenClique(b, k, 200)
		for i := range eps {
			eps[i] = 0.05 // tight bounds so the search runs several rounds
		}
		mdl.Step()
		truth := test[0]
		for _, arm := range []struct {
			name string
			m    model.Model
		}{{"incremental", mdl}, {"scratch", scratchSearchModel{mdl}}} {
			b.Run(arm.name+"/k="+strconv.Itoa(k), func(b *testing.B) {
				// The search is read-only, so both arms share the model.
				replica, err := protocol.New(arm.m, nil, eps)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					obs, _, err := replica.Choose(truth, nil)
					if err != nil {
						b.Fatal(err)
					}
					if len(obs) == 0 {
						b.Fatal("empty report set — the search was not exercised")
					}
				}
			})
		}
	}
}

func randomGaussian(b *testing.B, rng *rand.Rand, n int) *gauss.Gaussian {
	b.Helper()
	m := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	cov, err := m.Mul(m.T())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cov.Add(i, i, 1)
	}
	mean := make([]float64, n)
	g, err := gauss.New(mean, cov)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// conditionViaInverse is the naive ablation arm: μ_a|b via an explicit
// Σ_bb⁻¹ (the Cholesky factor solved against the identity).
func conditionViaInverse(g *gauss.Gaussian, obsIdx []int, vals []float64) error {
	n := g.Dim()
	keep := make([]int, 0, n-len(obsIdx))
	for i, next := 0, 0; i < n; i++ {
		if next < len(obsIdx) && obsIdx[next] == i {
			next++
			continue
		}
		keep = append(keep, i)
	}
	cov := g.Cov()
	mean := g.Mean()
	sigAB := cov.Submatrix(keep, obsIdx)
	sigBB := cov.Submatrix(obsIdx, obsIdx)
	ch, err := mat.NewCholesky(sigBB)
	if err != nil {
		return err
	}
	inv, err := ch.Solve(mat.Identity(len(obsIdx)))
	if err != nil {
		return err
	}
	delta := make([]float64, len(obsIdx))
	for k, i := range obsIdx {
		delta[k] = vals[k] - mean[i]
	}
	w, err := inv.MulVec(delta)
	if err != nil {
		return err
	}
	if _, err := sigAB.MulVec(w); err != nil {
		return err
	}
	return nil
}

// --- Micro-benchmarks on the hot path ------------------------------------

func BenchmarkMCExpectedReports(b *testing.B) {
	mdl, _, eps := gardenClique(b, 3, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.ExpectedReports(mdl, eps, mc.Config{Trajectories: 8, Horizon: 48, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSwitchingModel compares the plain LinearGaussian with
// the §6 regime-switching model on HVAC-style two-level data.
func BenchmarkAblationSwitchingModel(b *testing.B) {
	data := regimeSeries(11, 1500)
	train, test := data[:500], data[500:]
	eps := []float64{0.5, 0.5}
	plain, err := model.FitLinearGaussian(train, model.FitConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sw, err := model.FitSwitching(train, model.SwitchingConfig{Regimes: 2})
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		mdl  model.Model
	}{{"plain", plain}, {"switching", sw}}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sent := replayReported(b, arm.mdl, test, eps)
				b.ReportMetric(float64(sent)/float64(len(test)*2), "frac-reported")
			}
		})
	}
}

// regimeSeries mirrors the switching model's target data: two attributes
// flipping between persistent levels with AR noise.
func regimeSeries(seed int64, steps int) [][]float64 {
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

// BenchmarkAblationAdaptiveRefit compares a static model with the
// footnote-4 adaptive wrapper on data whose season shifts mid-stream.
func BenchmarkAblationAdaptiveRefit(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	steps := 1400
	data := make([][]float64, steps)
	w := 0.0
	for t := range data {
		amp, base := 1.5, 20.0
		if t >= steps/2 {
			amp, base = 3.2, 22.5
		}
		w = 0.75*w + 0.3*rng.NormFloat64()
		d := amp * math.Sin(2*math.Pi*float64(t)/24)
		data[t] = []float64{base + d + w, base + 0.4 + d + w*0.8}
	}
	train, test := data[:100], data[100:]
	eps := []float64{0.5, 0.5}
	lg, err := model.FitLinearGaussian(train, model.FitConfig{Period: 24})
	if err != nil {
		b.Fatal(err)
	}
	adaptive, err := model.NewAdaptive(lg, model.AdaptiveConfig{
		RefitEvery: 96, Window: 240, Fit: model.FitConfig{Period: 24}})
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		mdl  model.Model
	}{{"static", lg}, {"adaptive", adaptive}}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sent := replayReported(b, arm.mdl, test, eps)
				b.ReportMetric(float64(sent)/float64(len(test)*2), "frac-reported")
			}
		})
	}
}

// BenchmarkSimnetLifetime measures the distributed programs' network
// lifetime (epochs until first node death) on a multi-hop chain.
func BenchmarkSimnetLifetime(b *testing.B) {
	exp, err := trace.LoadExperiment("garden", 21, 100, 2200, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := len(exp.Eps)
	top, err := network.Chain(n)
	if err != nil {
		b.Fatal(err)
	}
	radio := simnet.DefaultRadio()
	radio.BatteryJ = 0.15
	radio.IdlePerEpoch = 1e-5
	part, err := cliques.Runs(n, 2, cliques.RootLast)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"tinydb", "ken"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := simnet.New(top, radio, 99)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := simnet.NewProgram(name, net, part, exp.Train, exp.Eps, model.FitConfig{Period: 24}, simnet.KenNetConfig{})
				if err != nil {
					b.Fatal(err)
				}
				tot, err := simnet.Run(net, prog, exp.Test)
				if err != nil {
					b.Fatal(err)
				}
				death := tot.FirstDeath
				if death < 0 {
					death = tot.Epochs
				}
				b.ReportMetric(float64(death), "epochs-to-first-death")
			}
		})
	}
}

// BenchmarkStreamThroughput measures frames per second through the full
// source→wire→sink pipeline over an in-memory buffer.
func BenchmarkStreamThroughput(b *testing.B) {
	dep, err := deploy.Build(deploy.Params{TestSteps: 600})
	if err != nil {
		b.Fatal(err)
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		b.Fatal(err)
	}
	sink, err := stream.NewReplica(dep.Config)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	var body []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := dep.Test[i%len(dep.Test)]
		f, err := src.Collect(row)
		if err != nil {
			b.Fatal(err)
		}
		// Re-stamp the step when wrapping past the test data.
		if err := stream.WriteFrame(&buf, f, src.Resolution()); err != nil {
			b.Fatal(err)
		}
		var got wire.Frame
		got, body, err = stream.ReadFrameBuf(&buf, sink.Resolution(), body)
		if err != nil {
			b.Fatal(err)
		}
		if err := sink.Apply(got); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
	}
}
