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

// The model-level evaluator must match MeanGiven for the same growing
// observed set without mutating the model.
func TestLinearGaussianCondEvaluatorMatchesMeanGiven(t *testing.T) {
	const n = 5
	data := gardenCols(t, 120, n)
	lg, err := FitLinearGaussian(data[:100], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	lg.Step()
	meanBefore := MeanOf(lg)
	if err := lg.CondReset(); err != nil {
		t.Fatal(err)
	}
	var idx []int
	var vals []float64
	dst := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for _, i := range []int{3, 0, 4} {
		v := meanBefore[i] + rng.NormFloat64()
		if err := lg.CondAdd(i, v); err != nil {
			t.Fatal(err)
		}
		// The reference takes its observed set in index order.
		at := sort.SearchInts(idx, i)
		idx = append(idx[:at], append([]int{i}, idx[at:]...)...)
		vals = append(vals[:at], append([]float64{v}, vals[at:]...)...)
		if err := lg.CondMeanInto(dst); err != nil {
			t.Fatal(err)
		}
		want, err := lg.MeanGiven(idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Abs(dst[k]-want[k]) > 1e-9*(1+math.Abs(want[k])) {
				t.Fatalf("CondMeanInto[%d] = %v, MeanGiven = %v", k, dst[k], want[k])
			}
		}
	}
	after := MeanOf(lg)
	for i := range after {
		if after[i] != meanBefore[i] {
			t.Fatal("evaluator mutated the model state")
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
	if _, err := lg.MeanGiven([]int{0}, []float64{19}); err != nil {
		t.Fatal(err)
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
