package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ken/internal/trace"
)

// gardenCols extracts the first n temperature columns of the garden trace.
func gardenCols(t testing.TB, steps, n int) [][]float64 {
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
		out[i] = append([]float64(nil), r[:n]...)
	}
	return out
}

// refMeanGiven is the textbook answer to the evaluator's question for lg:
// gauss.ConditionalMean of the settled belief on the residuals of the pair
// (idx ascending), back in absolute values.
func refMeanGiven(t testing.TB, lg *LinearGaussian, idx []int, vals []float64) []float64 {
	t.Helper()
	lg.settle()
	p, res := lg.phaseMean(), make([]float64, len(idx))
	for k, i := range idx {
		res[k] = vals[k] - p[i]
	}
	cm, err := lg.state.ConditionalMean(idx, res)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cm {
		cm[i] += p[i]
	}
	return cm
}

// evaluatorAnswers grows m's hypothetical set in the given order and calls
// check with CondMeanInto's answer and the set so far in index order.
func evaluatorAnswers(t *testing.T, m Model, order []int, vals []float64, check func(got []float64, idx []int, vals []float64)) {
	t.Helper()
	if err := m.CondReset(); err != nil {
		t.Fatal(err)
	}
	var idx []int
	var sorted []float64
	dst := make([]float64, m.Dim())
	for k, i := range order {
		if err := m.CondAdd(i, vals[k]); err != nil {
			t.Fatal(err)
		}
		at := sort.SearchInts(idx, i)
		idx = append(idx[:at], append([]int{i}, idx[at:]...)...)
		sorted = append(sorted[:at], append([]float64{vals[k]}, sorted[at:]...)...)
		if err := m.CondMeanInto(dst); err != nil {
			t.Fatal(err)
		}
		check(dst, idx, sorted)
	}
}

// The evaluator of LinearGaussian, and of Adaptive which delegates to its
// current fit, must match the textbook conditioning for the same growing
// observed set, to 1e-9, without mutating the model.
func TestCondEvaluatorMatchesReference(t *testing.T) {
	const n = 5
	data := gardenCols(t, 160, n)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := NewAdaptive(lg.Clone().(*LinearGaussian), AdaptiveConfig{RefitEvery: 24, Fit: FitConfig{Period: 24}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range data[100:150] { // past two refits
		ad.Step()
		if err := ad.Condition([]int{1}, row[1:2]); err != nil {
			t.Fatal(err)
		}
	}
	lg.Step()
	ad.Step()
	rng := rand.New(rand.NewSource(9))
	for name, c := range map[string]struct {
		m   Model
		ref *LinearGaussian
	}{"LinearGaussian": {lg, lg}, "Adaptive": {ad, ad.Inner()}} {
		meanBefore := MeanOf(c.m)
		order := []int{3, 0, 4}
		vals := make([]float64, len(order))
		for k, i := range order {
			vals[k] = meanBefore[i] + rng.NormFloat64()
		}
		evaluatorAnswers(t, c.m, order, vals, func(got []float64, idx []int, vals []float64) {
			want := refMeanGiven(t, c.ref, idx, vals)
			for k := range want {
				if math.Abs(got[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
					t.Fatalf("%s %v: CondMeanInto[%d] = %v, reference %v", name, idx, k, got[k], want[k])
				}
			}
		})
		if !sameBits(MeanOf(c.m), meanBefore) {
			t.Fatalf("%s: evaluator mutated the model state", name)
		}
	}
}

// Generation must tick on Step and Condition (state mutations) and stay
// put across read-only evaluations; a mutation mid-evaluation makes the
// evaluator refuse rather than answer stale (the kernel's search then
// re-seeds it: protocol.TestChooseRecoversFromStaleEvaluator).
func TestLinearGaussianGenerationAndStaleness(t *testing.T) {
	const n = 4
	data := gardenCols(t, 120, n)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	g0 := lg.Generation()
	lg.Step()
	if lg.Generation() != g0+1 {
		t.Fatalf("generation after Step = %d, want %d", lg.Generation(), g0+1)
	}
	if err := lg.Condition([]int{1}, []float64{20}); err != nil {
		t.Fatal(err)
	}
	if lg.Generation() != g0+2 {
		t.Fatalf("generation after Condition = %d, want %d", lg.Generation(), g0+2)
	}
	if err := lg.CondReset(); err != nil {
		t.Fatal(err)
	}
	if err := lg.CondAdd(0, 19); err != nil {
		t.Fatal(err)
	}
	if lg.Generation() != g0+2 {
		t.Fatalf("generation after read-only evaluation = %d, want %d", lg.Generation(), g0+2)
	}
	// Mutate mid-evaluation: the evaluator must go stale.
	lg.Step()
	dst := make([]float64, n)
	if err := lg.CondMeanInto(dst); err == nil {
		t.Fatal("CondMeanInto answered from a stale cache after Step")
	}
}
