package model

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ken/internal/gauss"
	"ken/internal/mat"
	"ken/internal/trace"
)

func garden2Cols(t *testing.T, steps int) [][]float64 {
	t.Helper()
	tr, err := trace.GenerateGarden(31, steps)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = []float64{r[0], r[1]}
	}
	return out
}

func TestFitLinearGaussianValidation(t *testing.T) {
	if _, err := FitLinearGaussian([][]float64{{1}, {2}, {3}}, FitConfig{}); err == nil {
		t.Fatal("expected error for too few rows")
	}
	if _, err := FitLinearGaussian([][]float64{{1}, {2}, {3}, {}}, FitConfig{}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

// TestLinearGaussianRejectsBadObservationsUnchanged: LinearGaussian checks
// only the pair's shape itself and leaves order and finiteness to gauss, so
// every malformed pair must still be refused — by MeanGiven and by Condition
// — with the belief left bit for bit where it was.
func TestLinearGaussianRejectsBadObservationsUnchanged(t *testing.T) {
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	lg.Step()
	before := MeanOf(lg)
	ref := lg.Clone() // never sees the rejects
	for name, bad := range map[string]struct {
		idx    []int
		vals   []float64
		target error
	}{
		"out of range":    {[]int{2}, []float64{1}, ErrDim},
		"negative index":  {[]int{-1}, []float64{1}, ErrDim},
		"length mismatch": {[]int{0, 1}, []float64{1}, ErrDim},
		"over-long":       {[]int{0, 0, 0}, []float64{1, 1, 1}, ErrDim},
		"unsorted":        {[]int{1, 0}, []float64{1, 2}, nil},
		"duplicate":       {[]int{1, 1}, []float64{1, 2}, nil},
		"NaN":             {[]int{1}, []float64{math.NaN()}, gauss.ErrNotFinite},
		"Inf":             {[]int{0, 1}, []float64{1, math.Inf(1)}, gauss.ErrNotFinite},
	} {
		_, mgErr := lg.MeanGiven(bad.idx, bad.vals)
		cErr := lg.Condition(bad.idx, bad.vals)
		for _, err := range []error{mgErr, cErr} {
			if err == nil || (bad.target != nil && !errors.Is(err, bad.target)) {
				t.Fatalf("%s: err = %v, want %v", name, err, bad.target)
			}
		}
		after := MeanOf(lg)
		for i := range before {
			if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: a rejected observation moved the mean", name)
			}
		}
	}
	// The covariance did not move either: one report and one step later the
	// model still agrees with the clone in every bit.
	for _, m := range []Model{lg, ref} {
		if err := m.Condition([]int{1}, []float64{before[1] + 2}); err != nil {
			t.Fatalf("valid observation after the rejects: %v", err)
		}
		m.Step()
	}
	got, want := MeanOf(lg), MeanOf(ref)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("after the rejects the model left lock-step: %v vs %v", got, want)
		}
	}
}

func TestLinearGaussianReplicaLockstep(t *testing.T) {
	// The replicated-model invariant: two clones stepped and conditioned
	// identically give identical predictions forever.
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	src := lg.Clone()
	sink := lg.Clone()
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20; step++ {
		src.Step()
		sink.Step()
		var idx []int
		var vals []float64
		if rng.Intn(2) == 0 {
			idx, vals = []int{rng.Intn(2)}, []float64{20 + rng.NormFloat64()}
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

// CopyStateFrom takes a twin's state only: a replica of another fit is
// refused, and a copy of a clone that went on alone (its debt owed, its
// clock ahead) answers as the clone does, bit for bit, through the same
// moves after it.
func TestCopyStateFromTwinOnly(t *testing.T) {
	data := garden2Cols(t, 150)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	other, err := FitLinearGaussian(data[10:110], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	sink := lg.Clone().(*LinearGaussian)
	if err := sink.CopyStateFrom(other); err == nil {
		t.Fatal("copied the state of another fit")
	}
	src := lg.Clone()
	for range 5 {
		src.Step()
	}
	if err := sink.CopyStateFrom(src); err != nil {
		t.Fatal(err)
	}
	for step, row := range data[105:130] {
		src.Step()
		sink.Step()
		idx, vals := []int{step % 2}, []float64{row[step%2]}
		if err := src.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := sink.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		a, b := MeanOf(src), MeanOf(sink)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("step %d: the copy answers %v, its twin %v", step, b, a)
			}
		}
	}
}

func TestLinearGaussianConditionExactAndCorrelated(t *testing.T) {
	data := garden2Cols(t, 150)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone().(*LinearGaussian)
	m.Step()
	before := MeanOf(m)
	obsVal := before[0] + 2 // report a value 2 degrees above prediction
	if err := m.Condition([]int{0}, []float64{obsVal}); err != nil {
		t.Fatal(err)
	}
	after := MeanOf(m)
	if math.Abs(after[0]-obsVal) > 1e-9 {
		t.Fatalf("observed attribute not exact: %v vs %v", after[0], obsVal)
	}
	// Spatial correlation: the unobserved neighbour must move toward the
	// reported deviation (garden nodes 0 and 1 are strongly correlated).
	if after[1] <= before[1] {
		t.Fatalf("correlated attribute did not move: before %v after %v", before[1], after[1])
	}
}

func TestLinearGaussianPredictsDiurnalCycle(t *testing.T) {
	// With no reports at all, the seasonal profile should keep hourly
	// predictions within a couple of degrees on held-out data.
	data := garden2Cols(t, 24*20)
	train, test := data[:24*14], data[24*14:]
	lg, err := FitLinearGaussian(train, FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m := lg.Clone()
	var sumAbs float64
	var count int
	for _, row := range test {
		m.Step()
		mean := MeanOf(m)
		for i := range row {
			sumAbs += math.Abs(mean[i] - row[i])
			count++
		}
	}
	if mae := sumAbs / float64(count); mae > 2.5 {
		t.Fatalf("unconditioned MAE = %v, seasonal model should track the cycle", mae)
	}
}

func TestLinearGaussianClockAndClone(t *testing.T) {
	data := garden2Cols(t, 60)
	lg, err := FitLinearGaussian(data[:50], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if lg.Clock() != 49 {
		t.Fatalf("clock = %d, want 49", lg.Clock())
	}
	cl := lg.Clone().(*LinearGaussian)
	cl.Step()
	if lg.Clock() != 49 || cl.Clock() != 50 {
		t.Fatalf("clone clock coupling: %d, %d", lg.Clock(), cl.Clock())
	}
}

func TestLinearGaussianSampler(t *testing.T) {
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 2)
	if err := lg.SampleState(x, rng); err != nil {
		t.Fatal(err)
	}
	if err := lg.SampleState(x[:1], rng); err == nil {
		t.Fatal("expected dim error for a short state destination")
	}
	nx := make([]float64, 2)
	if err := lg.SampleNext(nx, x, rng); err != nil {
		t.Fatal(err)
	}
	// Samples stay in a physically plausible band.
	for _, v := range nx {
		if v < -20 || v > 60 {
			t.Fatalf("implausible sampled temperature %v", v)
		}
	}
	if err := lg.SampleNext(nx, []float64{1}, rng); err == nil {
		t.Fatal("expected dim error")
	}
	if err := lg.SampleNext(nx[:1], x, rng); err == nil {
		t.Fatal("expected dim error for a short destination")
	}
	// Clones share the fitted factor of Q, and writing over the input
	// draws what a fresh destination does.
	cl := lg.Clone().(*LinearGaussian)
	if cl.qChol != lg.qChol {
		t.Fatal("the clone refactored Q")
	}
	in, fresh := append([]float64(nil), x...), make([]float64, 2)
	if err := lg.SampleNext(fresh, x, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	if err := cl.SampleNext(in, in, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	if !sameBits(in, fresh) {
		t.Fatalf("in place %v, into a fresh slice %v", in, fresh)
	}
}

// A Q that does not factor fails neither the fit nor the load, only the
// sampling that needs it, on every clone and after a JSON round trip.
func TestSampleNextReportsAnUnfactorableQ(t *testing.T) {
	data := garden2Cols(t, 120)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	lg.q = mat.NewDenseFrom([][]float64{{1, 2}, {2, 1}})
	lg.qChol, lg.qErr = factorQ(lg.q)
	buf, err := json.Marshal(lg)
	if err != nil {
		t.Fatal(err)
	}
	var loaded LinearGaussian
	if err := json.Unmarshal(buf, &loaded); err != nil {
		t.Fatal(err)
	}
	x := MeanOf(lg)
	for name, m := range map[string]*LinearGaussian{"fitted": lg, "clone": lg.Clone().(*LinearGaussian), "loaded": &loaded} {
		err := m.SampleNext(make([]float64, 2), x, rand.New(rand.NewSource(1)))
		if !errors.Is(err, mat.ErrSingular) {
			t.Fatalf("%s: SampleNext err = %v, want ErrSingular", name, err)
		}
	}
}

func TestSeasonalProfileFallback(t *testing.T) {
	// 10 rows with period 24: cannot cover two cycles, must fall back to a
	// single global phase.
	data := make([][]float64, 10)
	for i := range data {
		data[i] = []float64{float64(i)}
	}
	profile, period := seasonalProfile(data, 24)
	if period != 1 || len(profile) != 1 {
		t.Fatalf("period = %d, profile rows = %d; want 1, 1", period, len(profile))
	}
	if math.Abs(profile[0][0]-4.5) > 1e-12 {
		t.Fatalf("global mean = %v, want 4.5", profile[0][0])
	}
}

func TestDiagonalAFit(t *testing.T) {
	data := garden2Cols(t, 150)
	lg, err := FitLinearGaussian(data[:120], FitConfig{Period: 24, DiagonalA: true})
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal transition entries must be exactly zero.
	if lg.a.At(0, 1) != 0 || lg.a.At(1, 0) != 0 {
		t.Fatalf("diagonal fit has off-diagonal entries: %v", lg.a)
	}
	// Diagonal entries should be a plausible AR coefficient.
	if a := lg.a.At(0, 0); a < 0 || a > 1.2 {
		t.Fatalf("AR coefficient = %v", a)
	}

	// Example 3.2 lives here: on x(t+1) = 0.8 x(t) + 3 + noise the diagonal
	// fit with no seasonal profile recovers α as A, the fixed point
	// β/(1−α) = 15 as the mean and the residual variance as Q.
	rng := rand.New(rand.NewSource(2))
	ar := make([][]float64, 600)
	x := 15.0
	for i := range ar {
		ar[i] = []float64{x}
		x = 0.8*x + 3 + 0.2*rng.NormFloat64()
	}
	lg, err = FitLinearGaussian(ar, FitConfig{Period: 1, DiagonalA: true})
	if err != nil {
		t.Fatal(err)
	}
	if a := lg.a.At(0, 0); math.Abs(a-0.8) > 0.05 {
		t.Fatalf("alpha = %v, want ~0.8", a)
	}
	if m := lg.profile[0][0]; math.Abs(m-15) > 0.3 {
		t.Fatalf("fixed point = %v, want ~15", m)
	}
	if sd := math.Sqrt(lg.q.At(0, 0)); math.Abs(sd-0.2) > 0.05 {
		t.Fatalf("residual SD = %v, want ~0.2", sd)
	}
}
