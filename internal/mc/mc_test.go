package mc

import (
	"math"
	"math/rand"
	"testing"

	"ken/internal/model"
	"ken/internal/model/modeltest"
	"ken/internal/protocol"
	"ken/internal/trace"
)

// noisyWalk returns a 1-attribute random-walk model with the given per-step
// innovation SD.
func noisyWalk(sd float64) *modeltest.RandomWalk {
	return modeltest.NewRandomWalk([]float64{0}, []float64{sd})
}

func TestExpectedReportsValidation(t *testing.T) {
	c := noisyWalk(1)
	if _, err := ExpectedReports(nil, []float64{1}, Config{}); err == nil {
		t.Fatal("expected error for nil model")
	}
	if _, err := ExpectedReports(c, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("expected error for eps dim mismatch")
	}
	if _, err := ExpectedReports(c, []float64{0}, Config{}); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
}

// gardenClique fits a LinearGaussian to the first n garden temperature
// columns.
func gardenClique(t *testing.T, n int) *model.LinearGaussian {
	t.Helper()
	tr, err := trace.GenerateGarden(41, 220)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, 200)
	for i := range cols {
		cols[i] = rows[i][:n]
	}
	lg, err := model.FitLinearGaussian(cols, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// The estimate resets one replica per trajectory; a fresh Clone and kernel
// per trajectory, what it replaced, gives the same bits.
func TestExpectedReportsMatchesFreshReplicas(t *testing.T) {
	for _, n := range []int{1, 3, 6} {
		lg := gardenClique(t, n)
		for _, e := range []float64{0.05, 0.3, 1} {
			eps := make([]float64, n)
			for i := range eps {
				eps[i] = e
			}
			cfg := Config{Trajectories: 6, Horizon: 40, Seed: int64(n)}
			got, err := ExpectedReports(lg, eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			sent := 0
			for run := 0; run < cfg.Trajectories; run++ {
				belief := lg.Clone().(model.Sampler)
				k, err := protocol.New(belief, nil, eps)
				if err != nil {
					t.Fatal(err)
				}
				truth, next := make([]float64, n), make([]float64, n)
				if err := belief.SampleState(truth, rng); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < cfg.Horizon; step++ {
					if err := belief.SampleNext(next, truth, rng); err != nil {
						t.Fatal(err)
					}
					r, err := k.Advance(next)
					if err != nil {
						t.Fatal(err)
					}
					sent += r
					truth, next = next, truth
				}
			}
			if want := float64(sent) / float64(cfg.Epochs()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d ε=%v: %v, fresh replicas %v", n, e, got, want)
			}
		}
	}
}

// A limit at the full run's count lets it complete with the unlimited bits;
// one below stops it.
func TestExpectedReportsWithinStopsPastTheLimit(t *testing.T) {
	lg := gardenClique(t, 3)
	eps := []float64{0.3, 0.3, 0.3}
	cfg := Config{Trajectories: 4, Horizon: 30, Seed: 2}
	full, err := ExpectedReports(lg, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sent := int(math.Round(full * float64(cfg.Epochs())))
	if sent == 0 {
		t.Fatal("nothing reported: the limit is never tested")
	}
	got, complete, err := ExpectedReportsWithin(lg, eps, cfg, sent)
	if err != nil || !complete || math.Float64bits(got) != math.Float64bits(full) {
		t.Fatalf("limit %d: %v complete=%v %v, want %v", sent, got, complete, err, full)
	}
	if _, complete, err := ExpectedReportsWithin(lg, eps, cfg, sent-1); err != nil || complete {
		t.Fatalf("limit %d completed a run that reports %d (%v)", sent-1, sent, err)
	}
	if _, complete, err := ExpectedReportsWithin(lg, eps, cfg, -1); err != nil || complete {
		t.Fatalf("limit -1 completed (%v)", err)
	}
}

func TestExpectedReportsDeterministic(t *testing.T) {
	c := noisyWalk(1)
	cfg := Config{Trajectories: 4, Horizon: 30, Seed: 7}
	a, err := ExpectedReports(c, []float64{0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExpectedReports(c, []float64{0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestExpectedReportsMonotoneInEpsilon(t *testing.T) {
	// A looser bound must never require more reports.
	c := noisyWalk(1)
	cfg := Config{Trajectories: 16, Horizon: 60, Seed: 3}
	tight, err := ExpectedReports(c, []float64{0.3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := ExpectedReports(c, []float64{3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loose > tight {
		t.Fatalf("loose ε reported more: %v > %v", loose, tight)
	}
	if tight <= 0 || tight > 1 {
		t.Fatalf("tight rate out of range: %v", tight)
	}
}

func TestExpectedReportsTinyNoiseNearZero(t *testing.T) {
	// Innovations far below ε: almost nothing should be reported.
	c := noisyWalk(0.01)
	m, err := ExpectedReports(c, []float64{1}, Config{Trajectories: 8, Horizon: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m > 0.1 {
		t.Fatalf("near-deterministic model reported %v of steps", m)
	}
}

func TestExpectedReportsHugeNoiseNearOne(t *testing.T) {
	// Innovations far above ε: nearly every step must report.
	c := noisyWalk(10)
	m, err := ExpectedReports(c, []float64{0.1}, Config{Trajectories: 8, Horizon: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m < 0.9 {
		t.Fatalf("unpredictable model reported only %v of steps", m)
	}
}

func TestCorrelatedCliqueBeatsIndependent(t *testing.T) {
	// Two highly correlated garden attributes in one multivariate model
	// should need fewer reported values than two independent single models
	// — the core premise of the Disjoint-Cliques family.
	tr, err := trace.GenerateGarden(41, 220)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	pair := make([][]float64, 200)
	for i := range pair {
		pair[i] = []float64{rows[i][0], rows[i][1]}
	}
	joint, err := model.FitLinearGaussian(pair, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trajectories: 12, Horizon: 60, Seed: 9}
	eps := []float64{0.5, 0.5}
	mJoint, err := ExpectedReports(joint, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}

	single := make([][]float64, 200)
	for i := range single {
		single[i] = []float64{rows[i][0]}
	}
	m1, err := model.FitLinearGaussian(single, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	mSingle, err := ExpectedReports(m1, []float64{0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mJoint >= 2*mSingle {
		t.Fatalf("joint model (%v) no better than 2 independents (2×%v)", mJoint, mSingle)
	}
}
