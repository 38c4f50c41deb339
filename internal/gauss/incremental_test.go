package gauss

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ken/internal/mat"
)

// randomSPDGaussian builds an n-dimensional Gaussian with a well-conditioned
// random SPD covariance.
func randomSPDGaussian(r *rand.Rand, n int) *Gaussian {
	b := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, r.NormFloat64())
		}
	}
	cov, _ := b.Mul(b.T())
	for i := 0; i < n; i++ {
		cov.Add(i, i, float64(n))
	}
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = r.NormFloat64() * 5
	}
	return MustNew(mu, cov)
}

// sortedSubset picks a random strictly-increasing index subset of size m.
func sortedSubset(r *rand.Rand, n, m int) []int {
	perm := r.Perm(n)[:m]
	idx := append([]int(nil), perm...)
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// The tentpole cross-check: the incremental rank-1 conditioning path must
// agree with the from-scratch batch path (Condition + re-embed, which
// observeExactBatch replicates) to ≤1e-9 — the audit's epsSlack — on both
// mean and covariance.
func TestQuickObserveExactIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		m := 1 + r.Intn(n-1) // 1 ≤ m < n: the dispatch paths under test
		g := randomSPDGaussian(r, n)
		idx := sortedSubset(r, n, m)
		vals := make([]float64, m)
		for k, i := range idx {
			vals[k] = g.mean[i] + r.NormFloat64()*3
		}

		inc := g.Clone()
		scr := g.Clone()
		wsInc := NewWorkspace(n)
		wsScr := NewWorkspace(n)
		if err := inc.ObserveExact(idx, vals, wsInc); err != nil {
			return false
		}
		if err := scr.observeExactBatch(idx, vals, wsScr); err != nil {
			return false
		}
		scale := 1 + scr.cov.MaxAbs()
		for i := 0; i < n; i++ {
			if math.Abs(inc.mean[i]-scr.mean[i]) > 1e-9*scale {
				return false
			}
		}
		return inc.cov.Equal(scr.cov, 1e-9*scale)
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The incremental path must preserve exact covariance symmetry without a
// Symmetrize pass, and leave observed rows/columns exactly zero.
func TestObserveExactIncrementalSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		g := randomSPDGaussian(rng, n)
		ws := NewWorkspace(n)
		idx := sortedSubset(rng, n, 1+rng.Intn(n-1))
		vals := make([]float64, len(idx))
		for k := range vals {
			vals[k] = rng.NormFloat64()
		}
		if err := g.ObserveExact(idx, vals, ws); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.cov.At(i, j) != g.cov.At(j, i) {
					t.Fatalf("cov asymmetric at (%d,%d): %v vs %v", i, j, g.cov.At(i, j), g.cov.At(j, i))
				}
			}
		}
		for _, i := range idx {
			for j := 0; j < n; j++ {
				if g.cov.At(i, j) != 0 || g.cov.At(j, i) != 0 {
					t.Fatalf("observed row/col %d not zeroed", i)
				}
			}
		}
	}
}

// Determinism pin for replica lock-step: two replicas starting from
// identical state and applying identical observations through their own
// workspaces must be bitwise identical afterwards — regardless of what
// evaluator activity warmed one side's cache.
func TestObserveExactReplicaLockStep(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 6
	src := randomSPDGaussian(rng, n)
	snk := src.Clone()
	wsSrc := NewWorkspace(n)
	wsSnk := NewWorkspace(n)

	for epoch := 0; epoch < 50; epoch++ {
		// Only the source runs the hypothesis evaluator (greedy search).
		if err := src.CondReset(wsSrc); err != nil {
			t.Fatal(err)
		}
		// A zero-variance (already observed) candidate is legitimately
		// rejected by the jitterless evaluator — the model layer falls back
		// to the from-scratch search in that case. Either way the evaluator
		// must not influence the state transition below.
		cand := rng.Intn(n)
		if err := src.CondAdd(cand, rng.NormFloat64(), wsSrc); err == nil {
			dst := make([]float64, n)
			if err := src.CondMeanInto(dst, wsSrc); err != nil {
				t.Fatal(err)
			}
		} else if !errors.Is(err, mat.ErrSingular) {
			t.Fatal(err)
		}

		m := 1 + rng.Intn(n-1)
		idx := sortedSubset(rng, n, m)
		vals := make([]float64, m)
		for k := range vals {
			vals[k] = rng.NormFloat64() * 2
		}
		if err := src.ObserveExact(idx, vals, wsSrc); err != nil {
			t.Fatal(err)
		}
		if err := snk.ObserveExact(idx, vals, wsSnk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if src.mean[i] != snk.mean[i] {
				t.Fatalf("epoch %d: replica means diverge at %d: %v vs %v", epoch, i, src.mean[i], snk.mean[i])
			}
		}
		if !src.cov.Equal(snk.cov, 0) {
			t.Fatalf("epoch %d: replica covariances diverge", epoch)
		}
		// Keep the state conditionable: restore fresh covariance rows by
		// re-seeding both replicas identically every few epochs.
		if epoch%5 == 4 {
			fresh := randomSPDGaussian(rng, n)
			src = fresh.Clone()
			snk = fresh.Clone()
		}
	}
}

// Satellite regression: a non-finite observation must be rejected with
// ErrNotFinite and leave the Gaussian (and workspace generation) untouched.
func TestObserveExactRejectsNonFinite(t *testing.T) {
	g := randomSPDGaussian(rand.New(rand.NewSource(34)), 4)
	ws := NewWorkspace(4)
	meanBefore := g.Mean()
	covBefore := g.Cov()
	genBefore := ws.Generation()
	cases := [][]float64{
		{math.NaN(), 1},
		{1, math.Inf(1)},
		{math.Inf(-1), math.NaN()},
	}
	for _, vals := range cases {
		err := g.ObserveExact([]int{0, 2}, vals, ws)
		if !errors.Is(err, ErrNotFinite) {
			t.Fatalf("ObserveExact(%v) err = %v, want ErrNotFinite", vals, err)
		}
	}
	// Single-index and full-observation dispatch paths too.
	if err := g.ObserveExact([]int{1}, []float64{math.NaN()}, ws); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("single-index NaN err = %v, want ErrNotFinite", err)
	}
	if err := g.ObserveExact([]int{0, 1, 2, 3}, []float64{1, 2, math.Inf(1), 4}, ws); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("point-mass Inf err = %v, want ErrNotFinite", err)
	}
	for i, v := range g.Mean() {
		if v != meanBefore[i] {
			t.Fatalf("mean mutated by rejected observation at %d: %v vs %v", i, v, meanBefore[i])
		}
	}
	if !g.Cov().Equal(covBefore, 0) {
		t.Fatal("covariance mutated by rejected observation")
	}
	if ws.Generation() != genBefore {
		t.Fatal("generation bumped by rejected observation")
	}
}

// The generation counter must tick on every state mutation and nothing else.
func TestWorkspaceGeneration(t *testing.T) {
	n := 3
	g := randomSPDGaussian(rand.New(rand.NewSource(35)), n)
	ws := NewWorkspace(n)
	if ws.Generation() != 0 {
		t.Fatalf("fresh generation = %d, want 0", ws.Generation())
	}
	a := mat.Identity(n)
	q := mat.Identity(n)
	if err := g.Predict(a, a.T(), q, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Generation() != 1 {
		t.Fatalf("generation after Predict = %d, want 1", ws.Generation())
	}
	if err := g.ObserveExact([]int{1}, []float64{2.5}, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Generation() != 2 {
		t.Fatalf("generation after ObserveExact = %d, want 2", ws.Generation())
	}
	// Empty observation set: no mutation, no bump.
	if err := g.ObserveExact(nil, nil, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Generation() != 2 {
		t.Fatalf("generation after empty observation = %d, want 2", ws.Generation())
	}
	// Evaluator reads must not bump either.
	if err := g.CondReset(ws); err != nil {
		t.Fatal(err)
	}
	if err := g.CondAdd(0, 1.0, ws); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	if err := g.CondMeanInto(dst, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Generation() != 2 {
		t.Fatalf("generation after evaluator reads = %d, want 2", ws.Generation())
	}
}

// The evaluator must answer exactly what ConditionalMean answers (to
// tolerance) for the same growing observed set, with no mutation of g.
func TestQuickCondEvaluatorMatchesConditionalMean(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		g := randomSPDGaussian(r, n)
		ws := NewWorkspace(n)
		if err := g.CondReset(ws); err != nil {
			return false
		}
		var idx []int
		var vals []float64
		order := r.Perm(n)[:1+r.Intn(n-1)]
		dst := make([]float64, n)
		covBefore := g.Cov()
		for _, i := range order {
			v := g.mean[i] + r.NormFloat64()*2
			if err := g.CondAdd(i, v, ws); err != nil {
				return false
			}
			// Keep the reference's observed set in index order.
			at := sort.SearchInts(idx, i)
			idx = append(idx[:at], append([]int{i}, idx[at:]...)...)
			vals = append(vals[:at], append([]float64{v}, vals[at:]...)...)
			if err := g.CondMeanInto(dst, ws); err != nil {
				return false
			}
			want, err := g.ConditionalMean(idx, vals)
			if err != nil {
				return false
			}
			for k := range want {
				if math.Abs(dst[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
					return false
				}
			}
		}
		return g.Cov().Equal(covBefore, 0)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Cache invalidation: any state mutation after CondReset must make the
// evaluator refuse to answer rather than serve a stale factor.
func TestCondEvaluatorStaleAfterMutation(t *testing.T) {
	n := 4
	g := randomSPDGaussian(rand.New(rand.NewSource(37)), n)
	ws := NewWorkspace(n)
	if err := g.CondReset(ws); err != nil {
		t.Fatal(err)
	}
	if err := g.CondAdd(0, 1, ws); err != nil {
		t.Fatal(err)
	}
	if err := g.ObserveExact([]int{2}, []float64{0.5}, ws); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	if err := g.CondMeanInto(dst, ws); !errors.Is(err, errCondStale) {
		t.Fatalf("CondMeanInto after mutation err = %v, want errCondStale", err)
	}
	if err := g.CondAdd(1, 1, ws); !errors.Is(err, errCondStale) {
		t.Fatalf("CondAdd after mutation err = %v, want errCondStale", err)
	}
	// A different Gaussian against the same workspace is stale too.
	other := g.Clone()
	if err := g.CondReset(ws); err != nil {
		t.Fatal(err)
	}
	if err := other.CondAdd(0, 1, ws); !errors.Is(err, errCondStale) {
		t.Fatalf("CondAdd for foreign Gaussian err = %v, want errCondStale", err)
	}
	// Re-seeding recovers.
	if err := other.CondReset(ws); err != nil {
		t.Fatal(err)
	}
	if err := other.CondAdd(0, 1, ws); err != nil {
		t.Fatal(err)
	}
	// Duplicate index is rejected.
	if err := other.CondAdd(0, 2, ws); err == nil {
		t.Fatal("duplicate CondAdd succeeded")
	}
	// Non-finite hypothesis is rejected.
	if err := other.CondAdd(1, math.NaN(), ws); !errors.Is(err, ErrNotFinite) {
		t.Fatalf("NaN CondAdd err = %v, want ErrNotFinite", err)
	}
}

// The committed speedup benchmark pair: incremental single-attribute
// conditioning vs the from-scratch batch path, identical state and
// identical restore overhead, so the ratio isolates the conditioning
// kernel. The acceptance bar for the incremental path is ≥2×.
func BenchmarkObserveExactIncremental1(b *testing.B) {
	benchObserve(b, false)
}

func BenchmarkObserveExactScratch1(b *testing.B) {
	benchObserve(b, true)
}

func benchObserve(b *testing.B, scratch bool) {
	const n = 49 // Intel Lab scale: one clique of the 49-node deployment
	rng := rand.New(rand.NewSource(41))
	g := randomSPDGaussian(rng, n)
	ws := NewWorkspace(n)
	base := g.Clone()
	idx := []int{n / 2}
	vals := []float64{1.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restore the conditionable state without timing artifacts beyond
		// the copy (identical in both variants).
		g.cov.CopyFrom(base.cov)
		copy(g.mean, base.mean)
		var err error
		if scratch {
			err = g.observeExactBatch(idx, vals, ws)
		} else {
			err = g.ObserveExact(idx, vals, ws)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// beliefBits flattens a belief, mean then Σ, for bitwise comparison.
func beliefBits(g *Gaussian) []uint64 {
	var out []uint64
	for _, v := range g.mean {
		out = append(out, math.Float64bits(v))
	}
	for i := 0; i < g.cov.Rows(); i++ {
		for _, v := range g.cov.Row(i) {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// Predict is its two halves, in either order, and each is the kernel
// sequence written out here with the allocating mat operations. Only the
// mean half counts as a mutation; the covariance half unbinds the evaluator.
func TestPredictIsItsTwoHalves(t *testing.T) {
	const n = 4
	r := rand.New(rand.NewSource(77))
	g := randomSPDGaussian(r, n)
	q := randomSPDGaussian(r, n).cov
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64()/2)
		}
	}
	aT := a.T()

	mu, _ := a.MulVec(g.mean)
	as, _ := a.Mul(g.cov)
	cov, _ := as.Mul(aT)
	if err := cov.AddInto(cov, q); err != nil {
		t.Fatal(err)
	}
	cov.Symmetrize()
	want := beliefBits(&Gaussian{mean: mu, cov: cov})

	whole, halves := g.Clone(), g.Clone()
	ws := NewWorkspace(n)
	if err := whole.Predict(a, aT, q, ws); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(beliefBits(whole), want) || ws.Generation() != 1 {
		t.Fatalf("Predict differs from the written-out transition (generation %d)", ws.Generation())
	}
	ws = NewWorkspace(n)
	if err := halves.PredictMean(a, ws); err != nil {
		t.Fatal(err)
	}
	if err := halves.CondReset(ws); err != nil {
		t.Fatal(err)
	}
	if err := halves.PredictCov(a, aT, q, ws); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(beliefBits(halves), want) || ws.Generation() != 1 {
		t.Fatalf("PredictMean then PredictCov differs from Predict (generation %d)", ws.Generation())
	}
	if err := halves.CondAdd(0, 1, ws); !errors.Is(err, errCondStale) {
		t.Fatalf("evaluator seeded before PredictCov answered %v, want stale", err)
	}

	// A Q of the wrong shape is refused with nothing moved.
	before := beliefBits(whole)
	if err := whole.Predict(a, aT, mat.NewDense(n-1, n-1), ws); err == nil {
		t.Fatal("Predict took a Q of the wrong shape")
	}
	if !reflect.DeepEqual(beliefBits(whole), before) || ws.Generation() != 1 {
		t.Fatal("a refused Predict moved the belief")
	}
}

// Out of an all-zero Σ the transition is Symmetrize(0 + Q) — a −0 in Q comes
// out +0 — and PredictCov with a nil A copies that image to the same bits.
func TestPredictCovFromZero(t *testing.T) {
	a := mat.NewDenseFrom([][]float64{{0.9, -0.3}, {0.2, 0.7}})
	negZero := math.Copysign(0, -1)
	q := mat.NewDenseFrom([][]float64{{0.5, negZero}, {negZero, 0.25}})
	image := mat.NewDense(2, 2)
	if err := image.AddInto(image, q); err != nil {
		t.Fatal(err)
	}
	image.Symmetrize()

	run, copied := MustNew([]float64{1, 2}, mat.NewDense(2, 2)), MustNew([]float64{1, 2}, mat.NewDense(2, 2))
	ws := NewWorkspace(2)
	if err := run.PredictCov(a, a.T(), q, ws); err != nil {
		t.Fatal(err)
	}
	if err := copied.PredictCov(nil, nil, image, ws); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(beliefBits(run), beliefBits(copied)) {
		t.Fatalf("zero Σ: the transition gives\n%v, the copy\n%v", run.cov, copied.cov)
	}
	if off := run.cov.At(0, 1); math.Float64bits(off) != 0 {
		t.Fatalf("Σ[0][1] = %v (bits %#x), want +0", off, math.Float64bits(off))
	}
}
