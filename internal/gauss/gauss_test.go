package gauss

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ken/internal/mat"
)

func std2D() *Gaussian {
	return MustNew([]float64{0, 0}, mat.Identity(2))
}

// corr2D builds a 2-D Gaussian with unit variances and correlation rho.
func corr2D(mu1, mu2, rho float64) *Gaussian {
	cov := mat.NewDenseFrom([][]float64{{1, rho}, {rho, 1}})
	return MustNew([]float64{mu1, mu2}, cov)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, mat.Identity(0)); err == nil {
		t.Fatal("expected error for empty mean")
	}
	if _, err := New([]float64{1}, mat.Identity(2)); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

func TestMeanCovCopies(t *testing.T) {
	g := std2D()
	m := g.Mean()
	m[0] = 42
	if g.Mean()[0] != 0 {
		t.Fatal("Mean returned a view")
	}
	c := g.Cov()
	c.Set(0, 0, 42)
	if g.Cov().At(0, 0) != 1 {
		t.Fatal("Cov returned a view")
	}
}

func TestConditionBivariate(t *testing.T) {
	// Classic result: for unit variances and correlation ρ,
	// X1 | X2 = x ~ N(μ1 + ρ(x − μ2), 1 − ρ²).
	rho := 0.8
	g := corr2D(10, 20, rho)
	cond, keep, err := g.Condition([]int{1}, []float64{22})
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 1 || keep[0] != 0 {
		t.Fatalf("keep = %v, want [0]", keep)
	}
	wantMean := 10 + rho*(22-20)
	if got := cond.Mean()[0]; math.Abs(got-wantMean) > 1e-10 {
		t.Fatalf("conditional mean = %v, want %v", got, wantMean)
	}
	wantVar := 1 - rho*rho
	if got := cond.Cov().At(0, 0); math.Abs(got-wantVar) > 1e-10 {
		t.Fatalf("conditional var = %v, want %v", got, wantVar)
	}
}

func TestConditionNoObservations(t *testing.T) {
	g := corr2D(1, 2, 0.5)
	cond, keep, err := g.Condition(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 2 {
		t.Fatalf("keep = %v", keep)
	}
	if !cond.Cov().Equal(g.Cov(), 1e-12) {
		t.Fatal("conditioning on nothing changed the covariance")
	}
}

func TestConditionAllObserved(t *testing.T) {
	g := corr2D(1, 2, 0.5)
	cond, keep, err := g.Condition([]int{0, 1}, []float64{1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if cond != nil || keep != nil {
		t.Fatal("conditioning on all variables should return point mass (nil)")
	}
}

func TestConditionOutOfRange(t *testing.T) {
	g := std2D()
	if _, _, err := g.Condition([]int{7}, []float64{1}); err == nil {
		t.Fatal("expected error for out-of-range observation index")
	}
	if _, _, err := g.Condition([]int{1, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for unsorted observation indices")
	}
	if _, _, err := g.Condition([]int{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for a duplicate observation index")
	}
	if _, _, err := g.Condition([]int{0}, []float64{math.NaN()}); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("NaN observation: err = %v, want ErrNotFinite", err)
	}
}

func TestConditionIndependentUnchanged(t *testing.T) {
	// With zero correlation, conditioning must not move the other variable.
	g := corr2D(5, 6, 0)
	cond, _, err := g.Condition([]int{1}, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if got := cond.Mean()[0]; math.Abs(got-5) > 1e-12 {
		t.Fatalf("independent conditional mean moved: %v", got)
	}
	if got := cond.Cov().At(0, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("independent conditional var changed: %v", got)
	}
}

func TestConditionalMean(t *testing.T) {
	rho := 0.5
	g := corr2D(0, 0, rho)
	cm, err := g.ConditionalMean([]int{0}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if cm[0] != 2 {
		t.Fatalf("observed position = %v, want exact observed value", cm[0])
	}
	if math.Abs(cm[1]-rho*2) > 1e-10 {
		t.Fatalf("conditional mean of unobserved = %v, want %v", cm[1], rho*2)
	}
}

func TestConditionalMeanAllObserved(t *testing.T) {
	g := std2D()
	cm, err := g.ConditionalMean([]int{0, 1}, []float64{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if cm[0] != 7 || cm[1] != 8 {
		t.Fatalf("cm = %v", cm)
	}
}

func TestSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := corr2D(3, -2, 0.7)
	const N = 20000
	sum := []float64{0, 0}
	sumSq := []float64{0, 0}
	sumXY := 0.0
	for i := 0; i < N; i++ {
		x, err := g.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		sum[0] += x[0]
		sum[1] += x[1]
		sumSq[0] += (x[0] - 3) * (x[0] - 3)
		sumSq[1] += (x[1] + 2) * (x[1] + 2)
		sumXY += (x[0] - 3) * (x[1] + 2)
	}
	if m := sum[0] / N; math.Abs(m-3) > 0.05 {
		t.Fatalf("sample mean[0] = %v, want ~3", m)
	}
	if m := sum[1] / N; math.Abs(m+2) > 0.05 {
		t.Fatalf("sample mean[1] = %v, want ~-2", m)
	}
	if v := sumSq[0] / N; math.Abs(v-1) > 0.05 {
		t.Fatalf("sample var[0] = %v, want ~1", v)
	}
	if c := sumXY / N; math.Abs(c-0.7) > 0.05 {
		t.Fatalf("sample cov = %v, want ~0.7", c)
	}
}

// estimate fits a Gaussian to the rows of data with the given relative
// ridge, the way model.FitLinearGaussian does.
func estimate(t *testing.T, data [][]float64, ridge float64) *Gaussian {
	t.Helper()
	mean, err := EstimateMean(data)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := EstimateCov(data, mean, ridge)
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(mean, cov)
}

func TestEstimateMeanCov(t *testing.T) {
	data := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	mean, err := EstimateMean(data)
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] != 2 || mean[1] != 20 {
		t.Fatalf("mean = %v, want [2 20]", mean)
	}
	cov, err := EstimateCov(data, mean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov.At(0, 0)-1) > 1e-12 {
		t.Fatalf("var[0] = %v, want 1", cov.At(0, 0))
	}
	if math.Abs(cov.At(0, 1)-10) > 1e-12 {
		t.Fatalf("cov = %v, want 10", cov.At(0, 1))
	}
	if math.Abs(cov.At(1, 1)-100) > 1e-12 {
		t.Fatalf("var[1] = %v, want 100", cov.At(1, 1))
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := EstimateMean(nil); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := EstimateCov([][]float64{{1}}, []float64{1}, 0); err == nil {
		t.Fatal("expected error on single sample")
	}
	if _, err := EstimateMean([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected error on ragged data")
	}
}

func TestEstimateRidgeRescuesDegenerate(t *testing.T) {
	// Two perfectly correlated attributes: covariance is singular without
	// ridge; EstimateCov with ridge must produce a usable Gaussian.
	data := make([][]float64, 50)
	rng := rand.New(rand.NewSource(12))
	for t := range data {
		v := rng.NormFloat64()
		data[t] = []float64{v, v}
	}
	g := estimate(t, data, 1e-6)
	if _, err := g.Sample(rng); err != nil {
		t.Fatalf("ridge-regularised Gaussian unusable: %v", err)
	}
}

// Property: conditioning never increases any retained variable's variance.
func TestQuickConditioningShrinksVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		// Random SPD covariance.
		b := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		cov, _ := b.Mul(b.T())
		for i := 0; i < n; i++ {
			cov.Add(i, i, 0.5)
		}
		mean := make([]float64, n)
		for i := range mean {
			mean[i] = r.NormFloat64() * 10
		}
		g, err := New(mean, cov)
		if err != nil {
			return false
		}
		// Observe a random non-empty strict subset.
		k := 1 + r.Intn(n-1)
		idx := r.Perm(n)[:k]
		sort.Ints(idx)
		vals := make([]float64, k)
		for j := range vals {
			vals[j] = r.NormFloat64() * 10
		}
		cond, keep, err := g.Condition(idx, vals)
		if err != nil {
			return false
		}
		before, after := g.Cov(), cond.Cov()
		for pos, i := range keep {
			if after.At(pos, pos) > before.At(i, i)+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: marginalising (selecting the mean entries and covariance block)
// then conditioning equals conditioning then marginalising for disjoint
// index sets (Gaussian consistency).
func TestQuickMarginalConditionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		b := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		cov, _ := b.Mul(b.T())
		for i := 0; i < n; i++ {
			cov.Add(i, i, 1)
		}
		mean := make([]float64, n)
		g, err := New(mean, cov)
		if err != nil {
			return false
		}
		obsVal := r.NormFloat64() * 3
		// Condition full joint on X_{n-1}, then look at variable 0.
		condFull, keep, err := g.Condition([]int{n - 1}, []float64{obsVal})
		if err != nil {
			return false
		}
		pos := -1
		for p, i := range keep {
			if i == 0 {
				pos = p
			}
		}
		// Marginalise to {0, n-1}, then condition on X_{n-1}.
		pair := []int{0, n - 1}
		marg, err := New(mat.Select(mean, pair), cov.Submatrix(pair, pair))
		if err != nil {
			return false
		}
		condMarg, _, err := marg.Condition([]int{1}, []float64{obsVal})
		if err != nil {
			return false
		}
		return math.Abs(condFull.Mean()[pos]-condMarg.Mean()[0]) < 1e-8 &&
			math.Abs(condFull.Cov().At(pos, pos)-condMarg.Cov().At(0, 0)) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: estimated mean/cov from samples of a known Gaussian converge.
func TestEstimateRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := corr2D(1, 2, -0.6)
	data := make([][]float64, 8000)
	for i := range data {
		x, err := g.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		data[i] = x
	}
	est := estimate(t, data, 0)
	if m := est.Mean(); math.Abs(m[0]-1) > 0.08 || math.Abs(m[1]-2) > 0.08 {
		t.Fatalf("estimated mean = %v", m)
	}
	if c := est.Cov(); math.Abs(c.At(0, 1)+0.6) > 0.08 {
		t.Fatalf("estimated corr = %v", c.At(0, 1))
	}
}
