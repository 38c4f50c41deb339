package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/trace"
)

// gardenData returns (train, test, eps) temperature matrices for the first
// n garden nodes.
func gardenData(t *testing.T, n, trainSteps, testSteps int) (train, test [][]float64, eps []float64) {
	t.Helper()
	tr, err := trace.GenerateGarden(77, trainSteps+testSteps)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = r[:n]
		}
		return out
	}
	all := cut(rows)
	eps = make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	return all[:trainSteps], all[trainSteps:], eps
}

// runs partitions attributes 0..n-1 into adjacent cliques of at most k,
// each rooted at its first member.
func runs(n, k int) *cliques.Partition {
	p, _ := cliques.Runs(n, k, cliques.RootFirst) // n, k >= 1 throughout
	return p
}

func TestTinyDBExactAndFull(t *testing.T) {
	_, test, eps := gardenData(t, 4, 100, 50)
	s, err := NewTinyDB(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.FractionReported() != 1 {
		t.Fatalf("TinyDB reported %v, want 1", res.FractionReported())
	}
	if res.MaxAbsError != 0 {
		t.Fatalf("TinyDB error %v, want 0", res.MaxAbsError)
	}
	if res.BoundViolations != 0 {
		t.Fatalf("TinyDB violations %d", res.BoundViolations)
	}
}

func TestTinyDBTopologyCost(t *testing.T) {
	top, err := network.Uniform(3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewTinyDB(3, top)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Step([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SinkCost != 12 { // 3 nodes × cost 4
		t.Fatalf("sink cost %v, want 12", st.SinkCost)
	}
	if _, err := NewTinyDB(0, nil); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewTinyDB(5, top); err == nil {
		t.Fatal("expected error for topology size mismatch")
	}
}

func TestCacheGuaranteeAndSavings(t *testing.T) {
	_, test, eps := gardenData(t, 4, 100, 200)
	s, err := NewCache(eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Fatalf("cache violations %d", res.BoundViolations)
	}
	fr := res.FractionReported()
	if fr <= 0.05 || fr >= 1 {
		t.Fatalf("cache fraction reported %v out of plausible range", fr)
	}
}

func TestCacheFirstStepPrimes(t *testing.T) {
	s, err := NewCache([]float64{100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Step([]float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if st.ValuesReported != 1 {
		t.Fatal("first step must prime the cache with a report")
	}
	_, st, err = s.Step([]float64{50.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.ValuesReported != 0 {
		t.Fatal("within-threshold step should not report")
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(nil, nil); err == nil {
		t.Fatal("expected error for no attributes")
	}
	if _, err := NewCache([]float64{0}, nil); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
}

func TestKenGuaranteeHolds(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 300)
	for _, part := range []*cliques.Partition{runs(4, 1), runs(4, 2)} {
		s, err := NewKen(KenConfig{
			Partition: part,
			Train:     train,
			Eps:       eps,
			FitCfg:    model.FitConfig{Period: 24},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundViolations != 0 {
			t.Fatalf("%s: %d bound violations — Ken's guarantee must be unconditional",
				s.Name(), res.BoundViolations)
		}
		if res.MaxAbsError > 0.5+1e-9 {
			t.Fatalf("%s: max error %v exceeds ε", s.Name(), res.MaxAbsError)
		}
		if res.FractionReported() >= 1 {
			t.Fatalf("%s: no savings at all", s.Name())
		}
	}
}

func TestKenSpatialCliquesReduceReports(t *testing.T) {
	train, test, eps := gardenData(t, 6, 100, 400)
	run := func(p *cliques.Partition) float64 {
		s, err := NewKen(KenConfig{
			Partition: p,
			Train:     train,
			Eps:       eps,
			FitCfg:    model.FitConfig{Period: 24},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundViolations != 0 {
			t.Fatalf("violations in %s", s.Name())
		}
		return res.FractionReported()
	}
	single := run(runs(6, 1))
	pairs := run(runs(6, 2))
	triple := run(&cliques.Partition{Cliques: []cliques.Clique{
		{Members: []int{0, 1, 2}, Root: 1},
		{Members: []int{3, 4, 5}, Root: 4},
	}})
	if pairs >= single {
		t.Fatalf("DjC2 (%v) should beat DjC1 (%v)", pairs, single)
	}
	if triple >= single {
		t.Fatalf("DjC3 (%v) should beat DjC1 (%v)", triple, single)
	}
}

func TestKenNameAndValidation(t *testing.T) {
	train, _, eps := gardenData(t, 2, 100, 10)
	s, err := NewKen(KenConfig{
		Partition: runs(2, 2),
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "DjC2" {
		t.Fatalf("name = %q", s.Name())
	}
	if named, err := NewKen(KenConfig{Name: "Ken-pairs", Partition: runs(2, 2), Train: train, Eps: eps}); err != nil || named.Name() != "Ken-pairs" {
		t.Fatalf("configured name: %v, %v", named, err)
	}
	if _, err := NewKen(KenConfig{}); err == nil {
		t.Fatal("expected error for missing partition")
	}
	if _, err := NewKen(KenConfig{Partition: runs(2, 1)}); err == nil {
		t.Fatal("expected error for missing training data")
	}
	if _, err := NewKen(KenConfig{Partition: runs(2, 1), Train: train, Eps: []float64{1}}); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
	if _, err := NewKen(KenConfig{Partition: runs(3, 1), Train: train, Eps: eps}); err == nil {
		t.Fatal("expected error for partition/data mismatch")
	}
}

func TestKenTopologyAccounting(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 50)
	top, err := network.Uniform(4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewKen(KenConfig{
		Partition: runs(4, 2),
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
		Topology:  top,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Intra: each pair collects 1 member at the root each step → 2 cliques
	// × 1 × 50 steps = 100.
	if math.Abs(res.IntraCost-100) > 1e-9 {
		t.Fatalf("intra cost %v, want 100", res.IntraCost)
	}
	// Sink: every reported value crosses cost 5.
	if math.Abs(res.SinkCost-float64(res.ValuesReported)*5) > 1e-9 {
		t.Fatalf("sink cost %v for %d values", res.SinkCost, res.ValuesReported)
	}
}

func TestKenExhaustiveNoWorseThanGreedy(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 150)
	frac := func(exhaustive bool) float64 {
		s, err := NewKen(KenConfig{
			Partition:  runs(4, 2),
			Train:      train,
			Eps:        eps,
			FitCfg:     model.FitConfig{Period: 24},
			Exhaustive: exhaustive,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundViolations != 0 {
			t.Fatal("guarantee violated")
		}
		return res.FractionReported()
	}
	g, e := frac(false), frac(true)
	// Exhaustive is per-step minimal, but trajectories diverge once a
	// different report changes the conditioned state, so cumulative totals
	// may differ slightly in either direction. They must stay close.
	if math.Abs(e-g) > 0.1*g {
		t.Fatalf("exhaustive (%v) and greedy (%v) subset search diverged badly", e, g)
	}
}

func TestKenProbabilisticReportsLessButViolates(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 300)
	det, err := NewKen(KenConfig{
		Partition: runs(4, 1), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	detRes, err := Run(context.Background(), det, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewKen(KenConfig{
		Partition: runs(4, 1), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
		Prob:   &ProbConfig{Steepness: 2, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	probRes, err := Run(context.Background(), prob, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	// The logistic policy suppresses some borderline reports...
	if probRes.FractionReported() >= detRes.FractionReported() {
		t.Fatalf("probabilistic (%v) should report less than deterministic (%v)",
			probRes.FractionReported(), detRes.FractionReported())
	}
	// ...at the price of occasional, bounded violations.
	if probRes.BoundViolations == 0 {
		t.Fatal("probabilistic reporting with steepness 2 should violate occasionally")
	}
	if probRes.MaxAbsError > 10*0.5 {
		t.Fatalf("probabilistic max error %v is unboundedly bad", probRes.MaxAbsError)
	}
	if _, err := NewKen(KenConfig{
		Partition: runs(4, 1), Train: train, Eps: eps,
		Prob: &ProbConfig{Steepness: 0},
	}); err == nil {
		t.Fatal("expected error for zero steepness")
	}
}

func TestAverageGuaranteeAndBehaviour(t *testing.T) {
	train, test, eps := gardenData(t, 6, 100, 300)
	s, err := NewAverage(train, eps, model.FitConfig{Period: 24}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Fatalf("average model violations %d", res.BoundViolations)
	}
	if res.FractionReported() >= 1 {
		t.Fatal("average model gave no savings")
	}
	if s.Name() != "Avg" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestAverageAggregationCost(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 20)
	top, err := network.Uniform(4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewAverage(train, eps, model.FitConfig{Period: 24}, top)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform: each node's tree edge to the base costs 3; two sweeps per
	// step → 2×4×3 = 24 per step.
	if want := 24.0 * float64(res.Steps); math.Abs(res.IntraCost-want) > 1e-9 {
		t.Fatalf("aggregation cost %v, want %v", res.IntraCost, want)
	}
}

func TestAverageValidation(t *testing.T) {
	if _, err := NewAverage(nil, nil, model.FitConfig{}, nil); err == nil {
		t.Fatal("expected error for empty training data")
	}
	train, _, _ := gardenData(t, 2, 100, 10)
	if _, err := NewAverage(train, []float64{1}, model.FitConfig{}, nil); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
	if _, err := NewAverage(train, []float64{1, 0}, model.FitConfig{}, nil); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
}

// FitAveragePairs fits every node's pair model from its two columns: each
// is bit for bit FitLinearGaussian over the hand-built columns
// (x_i(t), X̄(t−1)), compared through the JSON form, which carries every
// float of the fit in its shortest exact form.
func TestFitAveragePairsIsThePairFit(t *testing.T) {
	fitCfg := model.FitConfig{Period: 24}
	for _, name := range []string{"garden", "lab"} {
		tr, err := trace.GenerateNamed(name, 3, 100)
		if err != nil {
			t.Fatal(err)
		}
		train, err := tr.Rows(trace.Temperature)
		if err != nil {
			t.Fatal(err)
		}
		n := len(train[0])
		eps := make([]float64, n)
		for i := range eps {
			eps[i] = 0.5
		}
		nodes, lastAvg, err := FitAveragePairs(train, eps, fitCfg)
		if err != nil {
			t.Fatal(err)
		}
		avg := make([]float64, len(train))
		for step, row := range train {
			for _, v := range row {
				avg[step] += v
			}
			avg[step] /= float64(n)
		}
		if len(nodes) != n || lastAvg != avg[len(avg)-1] {
			t.Fatalf("%s: %d nodes, last average %v, want %d and %v", name, len(nodes), lastAvg, n, avg[len(avg)-1])
		}
		for i, k := range nodes {
			if !slices.Equal(k.Members(), []int{i}) || !slices.Equal(k.Eps(), eps[i:i+1]) {
				t.Fatalf("%s node %d: members %v, bounds %v — want the node alone, the average as evidence", name, i, k.Members(), k.Eps())
			}
			cols := make([][]float64, len(train)-1)
			for step := range cols {
				cols[step] = []float64{train[step+1][i], avg[step]}
			}
			want, err := model.FitLinearGaussian(cols, fitCfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(k.Model())
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s node %d: sliced fit\n%s\nhand-built fit\n%s", name, i, got, wantJSON)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	s, err := NewTinyDB(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), s, nil, RunOptions{}); err == nil {
		t.Fatal("expected error for empty test data")
	}
	if _, err := Run(context.Background(), s, [][]float64{{1}}, RunOptions{}); err == nil {
		t.Fatal("expected error for row dim mismatch")
	}
	if _, err := Run(context.Background(), s, [][]float64{{1, 2}}, RunOptions{Eps: []float64{1}}); err == nil {
		t.Fatal("expected error for eps dim mismatch")
	}
}

func TestLossyKenDivergesAndHeartbeatsHeal(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 400)
	base := KenConfig{
		Partition: runs(4, 2), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	}
	// observed gives a scheme its own registry, where Step publishes the
	// lost values and heartbeats of the loop's record.
	observed := func() (KenConfig, *obs.Registry) {
		cfg, reg := base, obs.NewRegistry()
		cfg.Obs = &obs.Observer{Reg: reg}
		return cfg, reg
	}
	// Heavy loss, no heartbeats: violations accumulate.
	noHBCfg, noHBReg := observed()
	noHB, err := NewLossyKen(noHBCfg, LossyConfig{LossRate: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resNoHB, err := Run(context.Background(), noHB, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if resNoHB.BoundViolations == 0 {
		t.Fatal("50% loss without heartbeats should violate bounds")
	}
	if noHBReg.Counter("ken_lost_reports_total").Value() == 0 {
		t.Fatal("loss injector dropped nothing")
	}
	// Same loss with frequent heartbeats: strictly fewer violations.
	hbCfg, hbReg := observed()
	hb, err := NewLossyKen(hbCfg, LossyConfig{LossRate: 0.5, HeartbeatEvery: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resHB, err := Run(context.Background(), hb, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if hbReg.Counter("ken_heartbeats_total").Value() == 0 {
		t.Fatal("no heartbeats issued")
	}
	if resHB.BoundViolations >= resNoHB.BoundViolations {
		t.Fatalf("heartbeats did not reduce violations: %d vs %d",
			resHB.BoundViolations, resNoHB.BoundViolations)
	}
	// Zero loss: identical guarantee to plain Ken.
	clean, err := NewLossyKen(base, LossyConfig{LossRate: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := Run(context.Background(), clean, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if resClean.BoundViolations != 0 {
		t.Fatalf("lossless lossy-wrapper violated bounds %d times", resClean.BoundViolations)
	}
}

func TestLossyKenValidation(t *testing.T) {
	train, _, eps := gardenData(t, 2, 100, 10)
	base := KenConfig{Partition: runs(2, 1), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24}}
	if _, err := NewLossyKen(base, LossyConfig{LossRate: 1}); err == nil {
		t.Fatal("expected error for loss rate 1")
	}
	if _, err := NewLossyKen(base, LossyConfig{HeartbeatEvery: -1}); err == nil {
		t.Fatal("expected error for negative heartbeat interval")
	}
	probCfg := base
	probCfg.Prob = &ProbConfig{Steepness: 1}
	if _, err := NewLossyKen(probCfg, LossyConfig{}); err == nil {
		t.Fatal("expected error combining probabilistic reporting with loss")
	}
}

func TestFailureDetector(t *testing.T) {
	d, err := NewFailureDetector(0.4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold for rate 0.4, alpha 0.01: floor(ln 0.01 / ln 0.6) + 1 = 10.
	if th := d.SilenceThreshold(); th != 10 {
		t.Fatalf("threshold = %d, want 10", th)
	}
	for i := 0; i < 9; i++ {
		if d.Observe(false) {
			t.Fatalf("suspected too early at silence %d", d.SilentSteps())
		}
	}
	if !d.Observe(false) {
		t.Fatal("should suspect after 10 silent steps")
	}
	if d.Observe(true) {
		t.Fatal("a report must clear suspicion")
	}
	if d.SilentSteps() != 0 {
		t.Fatal("report did not reset the silence run")
	}
	if _, err := NewFailureDetector(0, 0.01); err == nil {
		t.Fatal("expected error for rate 0")
	}
	if _, err := NewFailureDetector(0.5, 1); err == nil {
		t.Fatal("expected error for alpha 1")
	}
}

func TestKenAnomalyPushedImmediately(t *testing.T) {
	// Event-detection claim (§1.1): an anomalous reading is reported the
	// very step it happens, and the sink's estimate reflects it within ε.
	train, test, eps := gardenData(t, 4, 100, 100)
	s, err := NewKen(KenConfig{
		Partition: runs(4, 2), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a 25-degree spike at step 50, node 2.
	test[50][2] += 25
	rec := &recorder{Scheme: s}
	res, err := Run(context.Background(), rec, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Fatal("guarantee violated")
	}
	if math.Abs(rec.est[50][2]-test[50][2]) > 0.5+1e-9 {
		t.Fatalf("anomaly not visible at sink: est %v truth %v",
			rec.est[50][2], test[50][2])
	}
	if !slices.Contains(rec.reported[50], 2) {
		t.Fatal("anomalous node sent no report at the anomalous step")
	}
}

func TestReportCountsSkewInCliques(t *testing.T) {
	train, test, eps := gardenData(t, 6, 100, 400)
	s, err := NewKen(KenConfig{
		Partition: &cliques.Partition{Cliques: []cliques.Clique{
			{Members: []int{0, 1, 2}, Root: 1},
			{Members: []int{3, 4, 5}, Root: 4},
		}},
		Train:  train,
		Eps:    eps,
		FitCfg: model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	// How many times each attribute was reported over the run, counted off
	// each step's list while it is valid.
	counts := make([]int, s.Dim())
	listed, reported := 0, 0
	for _, row := range test {
		_, st, err := s.Step(row)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range st.Reported {
			counts[a]++
			listed++
		}
		reported += st.ValuesReported
	}
	if listed != reported {
		t.Fatalf("counts sum %d, values reported %d", listed, reported)
	}
	// The minimal-subset selection concentrates reports: the most-reported
	// attribute in each clique carries disproportionately more than the
	// least (the paper's "few indicative nodes" effect).
	for _, members := range [][]int{{0, 1, 2}, {3, 4, 5}} {
		min, max := counts[members[0]], counts[members[0]]
		for _, m := range members[1:] {
			if counts[m] < min {
				min = counts[m]
			}
			if counts[m] > max {
				max = counts[m]
			}
		}
		if max == 0 {
			t.Fatalf("clique %v never reported", members)
		}
		if float64(max) < 1.2*float64(min) {
			t.Logf("clique %v counts fairly even (min %d max %d) — acceptable but unusual", members, min, max)
		}
	}
}
