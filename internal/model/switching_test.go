package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// regimeData synthesises a 2-attribute series that flips between two level
// regimes (like the lab's HVAC) with small AR noise.
func regimeData(seed int64, steps int, gap float64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, steps)
	level := 0.0
	w1, w2 := 0.0, 0.0
	for t := range data {
		// Sticky regime: flip with 2% probability per step.
		if rng.Float64() < 0.02 {
			if level == 0 {
				level = -gap
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

func TestFitSwitchingValidation(t *testing.T) {
	if _, err := FitSwitching(regimeData(1, 5, 2), SwitchingConfig{Regimes: 2}); err == nil {
		t.Fatal("expected error for too few rows")
	}
	if _, err := FitSwitching(regimeData(1, 100, 2), SwitchingConfig{Regimes: 1}); err == nil {
		t.Fatal("expected error for 1 regime")
	}
}

func TestSwitchingRecoversRegimeGap(t *testing.T) {
	data := regimeData(2, 600, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Regimes() != 2 {
		t.Fatalf("regimes = %d", s.Regimes())
	}
	// The two learned offsets should be ~3 apart on each attribute.
	gap0 := math.Abs(s.offsets[0][0] - s.offsets[1][0])
	if gap0 < 2 || gap0 > 4 {
		t.Fatalf("recovered regime gap %v, want ~3", gap0)
	}
}

func TestSwitchingPosteriorTracksRegime(t *testing.T) {
	data := regimeData(3, 600, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Clone().(*Switching)
	// Feed observations deep in one regime; the posterior must commit.
	m.Step()
	lowRegime := 0
	if s.offsets[1][0] < s.offsets[0][0] {
		lowRegime = 1
	}
	for i := 0; i < 5; i++ {
		m.Step()
		base := MeanOf(m.base)
		if err := m.Condition([]int{0}, []float64{base[0] + m.offsets[lowRegime][0]}); err != nil {
			t.Fatal(err)
		}
	}
	if p := m.RegimeProbs(); p[lowRegime] < 0.7 {
		t.Fatalf("posterior did not track the regime: %v", p)
	}
}

func TestSwitchingReplicaLockstep(t *testing.T) {
	data := regimeData(4, 500, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := s.Clone()
	sink := s.Clone()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 40; step++ {
		src.Step()
		sink.Step()
		var idx []int
		var vals []float64
		if rng.Intn(2) == 0 {
			idx, vals = []int{rng.Intn(2)}, []float64{18 + 3*rng.Float64()}
		}
		if err := src.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := sink.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		a, b := MeanOf(src), MeanOf(sink)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replicas diverged at step %d: %v vs %v", step, a, b)
			}
		}
	}
}

// TestSwitchingReplicasBitwiseLockStep holds two clones to bit-identical
// regime posteriors and means under multi-value reports. The posterior's
// log-likelihood is a sum over the observed attributes; with a regime gap
// small enough that the posterior does not saturate, any difference in
// summation order shows in the last bits — which is why observations are a
// sorted pair accumulated in index order and not a map.
func TestSwitchingReplicasBitwiseLockStep(t *testing.T) {
	const n, observed, gap = 6, 4, 0.8
	rng := rand.New(rand.NewSource(11))
	data := make([][]float64, 700)
	level := 0.0
	w := make([]float64, n)
	for t := range data {
		if rng.Float64() < 0.02 {
			level = -gap - level
		}
		row := make([]float64, n)
		for i := range row {
			w[i] = 0.7*w[i] + 0.35*rng.NormFloat64()
			row[i] = 20 + 0.1*float64(i) + level + w[i]
		}
		data[t] = row
	}
	s, err := FitSwitching(data[:400], SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Clone().(*Switching), s.Clone().(*Switching)
	for step, row := range data[400:] {
		a.Step()
		b.Step()
		idx := rng.Perm(n)[:observed]
		sort.Ints(idx)
		vals := make([]float64, observed)
		for k, i := range idx {
			vals[k] = row[i]
		}
		if err := a.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := b.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		pa, pb := a.RegimeProbs(), b.RegimeProbs()
		for r := range pa {
			if math.Float64bits(pa[r]) != math.Float64bits(pb[r]) {
				t.Fatalf("step %d: regime posteriors differ in bits: %v vs %v", step, pa, pb)
			}
		}
		ma, mb := MeanOf(a), MeanOf(b)
		for i := range ma {
			if math.Float64bits(ma[i]) != math.Float64bits(mb[i]) {
				t.Fatalf("step %d: means differ in bits: %v vs %v", step, ma, mb)
			}
		}
	}
}

func TestSwitchingMeanGivenExactOnObserved(t *testing.T) {
	data := regimeData(6, 500, 3)
	s, err := FitSwitching(data, SwitchingConfig{Regimes: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Clone()
	m.Step()
	cm, err := m.MeanGiven([]int{1}, []float64{17.5})
	if err != nil {
		t.Fatal(err)
	}
	if cm[1] != 17.5 {
		t.Fatalf("observed attribute = %v, want exact", cm[1])
	}
	if _, err := m.MeanGiven([]int{9}, []float64{1}); err == nil {
		t.Fatal("expected error for out-of-range observation")
	}
}

func TestKMeans1D(t *testing.T) {
	vals := []float64{0, 0.1, -0.1, 5, 5.1, 4.9}
	labels, centers := kmeans1D(vals, 2, 20)
	if labels[0] == labels[3] {
		t.Fatalf("clusters not separated: %v", labels)
	}
	lo, hi := centers[0], centers[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo) > 0.2 || math.Abs(hi-5) > 0.2 {
		t.Fatalf("centers = %v", centers)
	}
}
