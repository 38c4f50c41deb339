package model_test

import (
	"math"
	"testing"

	"ken/internal/model"
	"ken/internal/protocol"
	"ken/internal/trace"
)

// These tests run the model families under the Ken loop itself — predict,
// choose the minimal report, condition — through the protocol kernel, which
// imports this package; hence the external test package.

func replica(t *testing.T, m model.Model, eps []float64) *protocol.Kernel {
	t.Helper()
	k, err := protocol.New(m, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// replayReported runs the loop over rows and returns the fraction of values
// reported.
func replayReported(t *testing.T, m model.Model, rows [][]float64, eps []float64) float64 {
	t.Helper()
	k := replica(t, m, eps)
	sent := 0
	for _, row := range rows {
		n, err := k.Advance(row)
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	return float64(sent) / float64(len(rows)*len(rows[0]))
}

func fitAdaptive(t *testing.T, data [][]float64, cfg model.AdaptiveConfig) (*model.LinearGaussian, *model.Adaptive) {
	t.Helper()
	lg, err := model.FitLinearGaussian(data[:100], model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fit = model.FitConfig{Period: 24}
	a, err := model.NewAdaptive(lg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lg, a
}

func TestAdaptiveReplicaLockstep(t *testing.T) {
	data := model.DriftData(2, 400)
	_, a := fitAdaptive(t, data, model.AdaptiveConfig{RefitEvery: 48, Window: 96})
	eps := []float64{0.5, 0.5}
	src, sink := replica(t, a.Clone(), eps), replica(t, a.Clone(), eps)
	for _, row := range data[100:300] {
		src.Predict()
		sink.Predict()
		idx, vals, err := src.Choose(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Commit(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := sink.Commit(idx, vals); err != nil {
			t.Fatal(err)
		}
		ma, mb := model.MeanOf(src.Model()), model.MeanOf(sink.Model())
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("adaptive replicas diverged: %v vs %v", ma, mb)
			}
		}
	}
}

func TestAdaptiveGuaranteeHolds(t *testing.T) {
	data := model.DriftData(3, 600)
	_, a := fitAdaptive(t, data, model.AdaptiveConfig{RefitEvery: 72, Window: 144})
	eps := []float64{0.5, 0.5}
	k := replica(t, a.Clone(), eps)
	for step, row := range data[100:] {
		if _, err := k.Advance(row); err != nil {
			t.Fatal(err)
		}
		if !model.WithinBounds(k.Mean(), row, eps) {
			t.Fatalf("step %d: adaptive model violated ε after conditioning", step)
		}
	}
}

func TestAdaptiveBeatsStaticUnderDrift(t *testing.T) {
	// After the mid-series season change, the static model's seasonal
	// profile and level are stale; the adaptive model relearns them from
	// the sink-visible stream and should report less on the second half.
	data := model.DriftData(4, 1400)
	lg, adaptive := fitAdaptive(t, data, model.AdaptiveConfig{RefitEvery: 96, Window: 240})
	test := data[100:]
	second := test[len(test)/2:]
	eps := []float64{0.5, 0.5}

	afterDrift := func(m model.Model) float64 {
		replayReported(t, m, test[:len(test)/2], eps)
		return replayReported(t, m, second, eps)
	}
	static, adapted := afterDrift(lg.Clone()), afterDrift(adaptive.Clone())
	if adapted >= static {
		t.Fatalf("adaptive (%v) should report less than static (%v) after the drift", adapted, static)
	}
}

func TestAdaptiveRefitKeepsPhase(t *testing.T) {
	// After a refit the clock (and therefore the diurnal phase) must stay
	// aligned with absolute time.
	data := model.DriftData(5, 500)
	_, a := fitAdaptive(t, data, model.AdaptiveConfig{RefitEvery: 50, Window: 100})
	m := a.Clone().(*model.Adaptive)
	replayReported(t, m, data[100:300], []float64{0.5, 0.5})
	if got, want := m.Inner().Clock(), 99+200; got != want {
		t.Fatalf("clock = %d, want %d", got, want)
	}
	if got, want := m.Inner().Phase(), (99+200)%24; got != want {
		t.Fatalf("phase = %d, want %d", got, want)
	}
}

func TestSwitchingBeatsPlainGaussianOnRegimeData(t *testing.T) {
	// The §6 motivation: on regime-switching data a single Gaussian
	// straddles the two levels; the switching model should report less.
	all := model.RegimeData(7, 1500, 4)
	train, test := all[:500], all[500:]
	eps := []float64{0.5, 0.5}

	plain, err := model.FitLinearGaussian(train, model.FitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plainFrac := replayReported(t, plain.Clone(), test, eps)

	sw, err := model.FitSwitching(train, model.SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	swFrac := replayReported(t, sw.Clone(), test, eps)

	if swFrac >= plainFrac {
		t.Fatalf("switching (%v) should report less than plain Gaussian (%v)", swFrac, plainFrac)
	}
}

func TestSwitchingGuaranteeAfterConditioning(t *testing.T) {
	// Regardless of regime confusion, conditioning on the minimal report
	// set must restore ε-accuracy (the Ken invariant).
	all := model.RegimeData(8, 900, 3)
	train, test := all[:300], all[300:]
	eps := []float64{0.5, 0.5}
	sw, err := model.FitSwitching(train, model.SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := replica(t, sw.Clone(), eps)
	for step, row := range test {
		if _, err := k.Advance(row); err != nil {
			t.Fatal(err)
		}
		if !model.WithinBounds(k.Mean(), row, eps) {
			t.Fatalf("step %d: post-report prediction violates ε", step)
		}
	}
}

// TestLinearGaussianLongRunStability: a thousand predict/condition cycles
// must not blow up numerically — means stay finite and physically
// plausible, covariance diagonals stay non-negative.
func TestLinearGaussianLongRunStability(t *testing.T) {
	tr, err := trace.GenerateGarden(87, 1200)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, len(rows))
	for i, r := range rows {
		cols[i] = r[:5]
	}
	lg, err := model.FitLinearGaussian(cols[:100], model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone().(*model.LinearGaussian)
	k := replica(t, m, []float64{0.5, 0.5, 0.5, 0.5, 0.5})
	for step, row := range cols[100:] {
		if _, err := k.Advance(row); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i, v := range model.MeanOf(m) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < -50 || v > 80 {
				t.Fatalf("step %d: mean[%d] = %v diverged", step, i, v)
			}
		}
		cov := m.Cov()
		for i := 0; i < 5; i++ {
			if cov.At(i, i) < -1e-9 {
				t.Fatalf("step %d: negative variance %v", step, cov.At(i, i))
			}
		}
	}
}
