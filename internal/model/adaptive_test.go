package model

import (
	"math"
	"math/rand"
	"testing"
)

// driftData synthesises a 2-attribute diurnal series whose amplitude and
// mean level shift permanently at the midpoint — the environment drifting
// away from what the initial training window saw.
func driftData(seed int64, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, steps)
	w1, w2 := 0.0, 0.0
	for t := range data {
		amp, base := 1.5, 20.0
		if t >= steps/2 {
			amp, base = 3.2, 22.5 // season change
		}
		diurnal := amp * math.Sin(2*math.Pi*float64(t)/24)
		w1 = 0.75*w1 + 0.3*rng.NormFloat64()
		w2 = 0.75*w2 + 0.3*rng.NormFloat64()
		shared := 0.25 * rng.NormFloat64()
		data[t] = []float64{base + diurnal + w1 + shared, base + 0.4 + diurnal + w2 + shared}
	}
	return data
}

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(nil, AdaptiveConfig{}); err == nil {
		t.Fatal("expected error for nil inner model")
	}
	data := driftData(1, 200)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdaptive(lg, AdaptiveConfig{RefitEvery: 1, Window: 2}); err == nil {
		t.Fatal("expected error for tiny window")
	}
}
