package pull

import (
	"errors"
	"math"
	"testing"

	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/trace"
)

// gardenModel fits a 4-node garden LinearGaussian plus test rows.
func gardenModel(t *testing.T) (*model.LinearGaussian, [][]float64) {
	t.Helper()
	tr, err := trace.GenerateGarden(61, 250)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, len(rows))
	for i, r := range rows {
		cols[i] = r[:4]
	}
	m, err := model.FitLinearGaussian(cols[:100], model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	return m, cols[100:]
}

// rowSource serves readings from a fixed row.
func rowSource(row []float64) Source {
	return SourceFunc(func(attr int) (float64, error) {
		if attr < 0 || attr >= len(row) {
			return 0, errors.New("bad attr")
		}
		return row[attr], nil
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("expected error for nil model")
	}
	m, _ := gardenModel(t)
	top, err := network.Uniform(7, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, top); err == nil {
		t.Fatal("expected error for topology size mismatch")
	}
}

func TestQueryValidation(t *testing.T) {
	m, test := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rowSource(test[0])
	if _, err := e.Query(ValueQuery{}, src); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := e.Query(ValueQuery{Attrs: []int{0}, Epsilon: 0, Confidence: 0.9}, src); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := e.Query(ValueQuery{Attrs: []int{0}, Epsilon: 1, Confidence: 1}, src); err == nil {
		t.Fatal("expected error for confidence 1")
	}
	if _, err := e.Query(ValueQuery{Attrs: []int{9}, Epsilon: 1, Confidence: 0.9}, src); err == nil {
		t.Fatal("expected error for out-of-range attribute")
	}
	if _, err := e.Query(ValueQuery{Attrs: []int{0}, Epsilon: 1, Confidence: 0.9}, nil); err == nil {
		t.Fatal("expected error for nil source")
	}
}

func TestFreshModelAnswersWithoutAcquisition(t *testing.T) {
	// Immediately after fitting, the state is a near point mass: any
	// reasonable query is answerable from the model alone.
	m, test := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(ValueQuery{Attrs: []int{0, 1}, Epsilon: 0.5, Confidence: 0.95}, rowSource(test[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Acquired) != 0 || ans.Cost != 0 {
		t.Fatalf("fresh model acquired %v at cost %v", ans.Acquired, ans.Cost)
	}
	for _, c := range ans.Confidence {
		if c < 0.95 {
			t.Fatalf("confidence %v below requirement", c)
		}
	}
}

func TestUncertaintyGrowsUntilAcquisitionNeeded(t *testing.T) {
	m, test := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let uncertainty accumulate for a day without any observations.
	for i := 0; i < 24; i++ {
		e.Step()
	}
	ans, err := e.Query(ValueQuery{Attrs: []int{0, 1, 2, 3}, Epsilon: 0.5, Confidence: 0.95},
		rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Acquired) == 0 {
		t.Fatal("a day of drift should force acquisition at ε=0.5, δ=0.95")
	}
	for k, c := range ans.Confidence {
		if c < 0.95 {
			t.Fatalf("attr %d confidence %v below requirement", k, c)
		}
	}
	// Acquired attributes answer exactly.
	for _, a := range ans.Acquired {
		for k, qa := range []int{0, 1, 2, 3} {
			if qa == a && math.Abs(ans.Values[k]-test[23][a]) > 1e-9 {
				t.Fatalf("acquired attr %d not exact: %v vs %v", a, ans.Values[k], test[23][a])
			}
		}
	}
}

func TestSpatialCorrelationSavesAcquisitions(t *testing.T) {
	// At a looser precision, conditioning on a couple of readings should
	// satisfy the whole query through spatial correlation — BBQ's central
	// trick.
	m, test := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		e.Step()
	}
	ans, err := e.Query(ValueQuery{Attrs: []int{0, 1, 2, 3}, Epsilon: 1.2, Confidence: 0.9},
		rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Acquired) == 0 {
		t.Fatal("expected some acquisition after a day of drift")
	}
	if len(ans.Acquired) >= 4 {
		t.Fatalf("acquired everything (%v); correlations unused", ans.Acquired)
	}
}

func TestLooseQueryCheaperThanTightQuery(t *testing.T) {
	m, test := gardenModel(t)
	run := func(eps float64) float64 {
		e, err := New(m.Clone().(*model.LinearGaussian), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			e.Step()
		}
		ans, err := e.Query(ValueQuery{Attrs: []int{0, 1, 2, 3}, Epsilon: eps, Confidence: 0.95},
			rowSource(test[23]))
		if err != nil {
			t.Fatal(err)
		}
		return ans.Cost
	}
	if tight, loose := run(0.3), run(3.0); loose > tight {
		t.Fatalf("loose query cost %v exceeds tight query cost %v", loose, tight)
	}
}

func TestAcquisitionCostUsesTopology(t *testing.T) {
	m, test := gardenModel(t)
	top, err := network.Uniform(4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m.Clone().(*model.LinearGaussian), top)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		e.Step()
	}
	ans, err := e.Query(ValueQuery{Attrs: []int{0, 1, 2, 3}, Epsilon: 0.5, Confidence: 0.95},
		rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	// Each acquisition is a round trip of cost 2×5.
	if want := float64(len(ans.Acquired)) * 10; math.Abs(ans.Cost-want) > 1e-9 {
		t.Fatalf("cost %v, want %v", ans.Cost, want)
	}
}

func TestCombinedPushPull(t *testing.T) {
	// §2: Ken and BBQ are complementary. A replica kept warm by pushes
	// (Condition) answers pull queries cheaper than a cold one.
	m, test := gardenModel(t)

	cold, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		cold.Step()
		warm.Step()
		// The warm replica receives a Ken push of node 0 every few hours.
		if i%4 == 0 {
			if err := warm.Condition([]int{0}, []float64{test[i][0]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := ValueQuery{Attrs: []int{0, 1, 2, 3}, Epsilon: 0.5, Confidence: 0.9}
	coldAns, err := cold.Query(q, rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	warmAns, err := warm.Query(q, rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	if warmAns.Cost > coldAns.Cost {
		t.Fatalf("push-warmed replica cost %v exceeds cold cost %v", warmAns.Cost, coldAns.Cost)
	}
}

func TestQuerySourceError(t *testing.T) {
	m, _ := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		e.Step()
	}
	bad := SourceFunc(func(int) (float64, error) { return 0, errors.New("radio down") })
	if _, err := e.Query(ValueQuery{Attrs: []int{0}, Epsilon: 0.1, Confidence: 0.99}, bad); err == nil {
		t.Fatal("expected source error to propagate")
	}
}

func TestQueryAverageValidation(t *testing.T) {
	m, test := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rowSource(test[0])
	if _, err := e.QueryAverage(AvgQuery{}, src); err == nil {
		t.Fatal("expected error for empty query")
	}
	if _, err := e.QueryAverage(AvgQuery{Attrs: []int{0}, Epsilon: 0, Confidence: 0.9}, src); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
	if _, err := e.QueryAverage(AvgQuery{Attrs: []int{0}, Epsilon: 1, Confidence: 0}, src); err == nil {
		t.Fatal("expected error for zero confidence")
	}
	if _, err := e.QueryAverage(AvgQuery{Attrs: []int{9}, Epsilon: 1, Confidence: 0.9}, src); err == nil {
		t.Fatal("expected error for out-of-range attribute")
	}
	if _, err := e.QueryAverage(AvgQuery{Attrs: []int{0}, Epsilon: 1, Confidence: 0.9}, nil); err == nil {
		t.Fatal("expected error for nil source")
	}
}

func TestQueryAverageCheaperThanValues(t *testing.T) {
	// The aggregate query should need fewer acquisitions than the value
	// query at the same ε/δ: averaging cancels idiosyncratic noise.
	m, test := gardenModel(t)
	drift := func() *Engine {
		e, err := New(m.Clone().(*model.LinearGaussian), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			e.Step()
		}
		return e
	}
	q := []int{0, 1, 2, 3}
	vAns, err := drift().Query(ValueQuery{Attrs: q, Epsilon: 0.5, Confidence: 0.95}, rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	aAns, err := drift().QueryAverage(AvgQuery{Attrs: q, Epsilon: 0.5, Confidence: 0.95}, rowSource(test[23]))
	if err != nil {
		t.Fatal(err)
	}
	if aAns.Cost > vAns.Cost {
		t.Fatalf("average query cost %v exceeds value query cost %v", aAns.Cost, vAns.Cost)
	}
	if aAns.Confidence < 0.95 {
		t.Fatalf("average confidence %v below requirement", aAns.Confidence)
	}
	// The answer should be close to the true average.
	truth := 0.0
	for _, a := range q {
		truth += test[23][a]
	}
	truth /= float64(len(q))
	if d := math.Abs(aAns.Value - truth); d > 1.5 {
		t.Fatalf("average estimate %v vs truth %v", aAns.Value, truth)
	}
}

func TestQueryAverageFreshModelFree(t *testing.T) {
	m, test := gardenModel(t)
	e, err := New(m.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.QueryAverage(AvgQuery{Attrs: []int{0, 1, 2, 3}, Epsilon: 0.5, Confidence: 0.95},
		rowSource(test[0]))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cost != 0 {
		t.Fatalf("fresh model paid %v for an average", ans.Cost)
	}
}
