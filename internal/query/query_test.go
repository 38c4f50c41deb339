package query

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/trace"
)

func TestAggregateString(t *testing.T) {
	for agg, want := range map[Aggregate]string{Avg: "avg", Sum: "sum", Min: "min", Max: "max"} {
		if agg.String() != want {
			t.Errorf("%d.String() = %q", int(agg), agg.String())
		}
	}
	if Aggregate(9).String() == "" {
		t.Fatal("unknown aggregate should still print")
	}
}

func TestEvalValidation(t *testing.T) {
	est := [][]float64{{1, 2}, {3, 4}}
	eps := []float64{0.5, 0.5}
	if _, err := Eval(nil, eps, Window{Agg: Avg, Attrs: []int{0}, From: 0, To: 1}); err == nil {
		t.Fatal("expected error for empty estimates")
	}
	if _, err := Eval(est, eps, Window{Agg: Avg, Attrs: []int{0}, From: 1, To: 1}); err == nil {
		t.Fatal("expected error for empty window")
	}
	if _, err := Eval(est, eps, Window{Agg: Avg, Attrs: nil, From: 0, To: 1}); err == nil {
		t.Fatal("expected error for no attributes")
	}
	if _, err := Eval(est, eps, Window{Agg: Avg, Attrs: []int{9}, From: 0, To: 1}); err == nil {
		t.Fatal("expected error for bad attribute")
	}
	if _, err := Eval(est, []float64{0, 1}, Window{Agg: Avg, Attrs: []int{0}, From: 0, To: 1}); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := Eval(est, eps, Window{Agg: Aggregate(9), Attrs: []int{0}, From: 0, To: 1}); err == nil {
		t.Fatal("expected error for unknown aggregate")
	}
}

func TestEvalKnownValues(t *testing.T) {
	est := [][]float64{
		{1, 10},
		{3, 30},
	}
	eps := []float64{0.5, 1.0}
	w := Window{Agg: Avg, Attrs: []int{0, 1}, From: 0, To: 2}
	ans, err := Eval(est, eps, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Value-11) > 1e-12 {
		t.Fatalf("avg = %v, want 11", ans.Value)
	}
	if math.Abs(ans.Bound-0.75) > 1e-12 { // mean of {0.5, 1.0, 0.5, 1.0}
		t.Fatalf("avg bound = %v, want 0.75", ans.Bound)
	}
	if ans.Count != 4 {
		t.Fatalf("count = %d", ans.Count)
	}

	w.Agg = Sum
	ans, err = Eval(est, eps, w)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 44 || math.Abs(ans.Bound-3) > 1e-12 {
		t.Fatalf("sum = %v ± %v", ans.Value, ans.Bound)
	}

	w.Agg = Min
	ans, err = Eval(est, eps, w)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 1 || ans.Bound != 1.0 {
		t.Fatalf("min = %v ± %v", ans.Value, ans.Bound)
	}

	w.Agg = Max
	ans, err = Eval(est, eps, w)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 30 || ans.Bound != 1.0 {
		t.Fatalf("max = %v ± %v", ans.Value, ans.Bound)
	}
}

// recorder keeps a copy of every estimate of a replay: core.Run keeps
// totals only, and an estimate is a view that the next step overwrites.
type recorder struct {
	core.Scheme
	est [][]float64
}

func (r *recorder) Step(truth []float64) ([]float64, core.StepStats, error) {
	est, st, err := r.Scheme.Step(truth)
	if err == nil {
		r.est = append(r.est, slices.Clone(est))
	}
	return est, st, err
}

// TestBoundsHoldOverKenStream runs Ken on garden data and audits every
// aggregate's bound against ground truth — the end-to-end contract.
func TestBoundsHoldOverKenStream(t *testing.T) {
	tr, err := trace.GenerateGarden(33, 400)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	train, test := rows[:100], rows[100:]
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	p, _ := cliques.Runs(n, 2, cliques.RootFirst) // pairs, then a singleton when n is odd
	s, err := core.NewKen(core.KenConfig{
		Partition: p, Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{Scheme: s}
	res, err := core.Run(context.Background(), rec, test, core.RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Fatal("collection violated ε")
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		from := rng.Intn(len(test) - 24)
		to := from + 1 + rng.Intn(24)
		k := 1 + rng.Intn(n)
		attrs := rng.Perm(n)[:k]
		agg := Aggregate(rng.Intn(4))
		w := Window{Agg: agg, Attrs: attrs, From: from, To: to}
		ans, err := Eval(rec.est, eps, w)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := TruthAggregate(test, w)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(ans.Value - truth); d > ans.Bound+1e-9 {
			t.Fatalf("trial %d (%v over %d attrs, window %d-%d): |%v − %v| = %v exceeds bound %v",
				trial, agg, k, from, to, ans.Value, truth, d, ans.Bound)
		}
	}
}
