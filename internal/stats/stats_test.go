package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if Mean(x) != 2.5 {
		t.Fatalf("mean = %v", Mean(x))
	}
	if v := Variance(x); math.Abs(v-1.25) > 1e-12 {
		t.Fatalf("variance = %v, want 1.25", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty series should give 0")
	}
}

func TestAutocorrelation(t *testing.T) {
	// Strong AR(1) has high lag-1 autocorrelation; white noise near zero.
	rng := rand.New(rand.NewSource(1))
	ar := make([]float64, 3000)
	wn := make([]float64, 3000)
	x := 0.0
	for i := range ar {
		x = 0.9*x + rng.NormFloat64()
		ar[i] = x
		wn[i] = rng.NormFloat64()
	}
	a1, err := Autocorrelation(ar, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 < 0.8 {
		t.Fatalf("AR(0.9) lag-1 autocorr = %v", a1)
	}
	w1, err := Autocorrelation(wn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w1) > 0.1 {
		t.Fatalf("white noise lag-1 autocorr = %v", w1)
	}
	a0, err := Autocorrelation(ar, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a0-1) > 1e-12 {
		t.Fatalf("lag-0 autocorr = %v, want 1", a0)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation([]float64{1, 2}, -1); err == nil {
		t.Fatal("expected error for negative lag")
	}
	if _, err := Autocorrelation([]float64{1, 2}, 5); err == nil {
		t.Fatal("expected error for short series")
	}
	if _, err := Autocorrelation([]float64{3, 3, 3, 3}, 1); err == nil {
		t.Fatal("expected error for constant series")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = Pearson(x, neg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", r)
	}
	if _, err := Pearson(x, y[:2]); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected short error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("expected constant error")
	}
}

func TestSeasonalStrength(t *testing.T) {
	// A pure sinusoid with period 24 is almost entirely seasonal.
	pure := make([]float64, 240)
	for i := range pure {
		pure[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	s, err := SeasonalStrength(pure, 24)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.99 {
		t.Fatalf("pure sinusoid seasonal strength = %v", s)
	}
	// White noise has almost none.
	rng := rand.New(rand.NewSource(2))
	noise := make([]float64, 2400)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	s, err = SeasonalStrength(noise, 24)
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.1 {
		t.Fatalf("noise seasonal strength = %v", s)
	}
	// Every phase holding the same values in its own order has none at all:
	// rounding may leave the residual variance a hair above the total, and
	// the strength must still not go below zero.
	permuted := make([]float64, 240)
	for i := 0; i < 10; i++ {
		vals := noise[i*10 : i*10+10]
		for p := 0; p < 24; p++ {
			for c, j := range rng.Perm(10) {
				permuted[c*24+p] = vals[j]
			}
		}
		if s, err = SeasonalStrength(permuted, 24); err != nil || s < 0 || s > 1e-12 {
			t.Fatalf("phase-permuted noise seasonal strength = %v, %v", s, err)
		}
	}
	if _, err := SeasonalStrength(pure, 1); err == nil {
		t.Fatal("expected error for period 1")
	}
	if _, err := SeasonalStrength(pure[:30], 24); err == nil {
		t.Fatal("expected error for short series")
	}
}

func TestCorrelationMatrix(t *testing.T) {
	rows := [][]float64{{1, 2, 5}, {2, 4, 5}, {3, 6, 5}, {4, 8, 5}}
	m, err := CorrelationMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 1 || math.Abs(m[0][1]-1) > 1e-12 {
		t.Fatalf("matrix = %v", m)
	}
	// Constant column correlates as 0 by convention.
	if m[0][2] != 0 {
		t.Fatalf("constant column correlation = %v", m[0][2])
	}
	if m[1][0] != m[0][1] {
		t.Fatal("matrix not symmetric")
	}
	if _, err := CorrelationMatrix([][]float64{{1}}); err == nil {
		t.Fatal("expected short error")
	}
	if _, err := CorrelationMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestMeanAbsDiff(t *testing.T) {
	d, err := MeanAbsDiff([]float64{0, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-4.0/3) > 1e-12 {
		t.Fatalf("mean abs diff = %v", d)
	}
	if _, err := MeanAbsDiff([]float64{1}); err == nil {
		t.Fatal("expected short error")
	}
}
