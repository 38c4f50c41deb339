package protocol

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ken/internal/alloctest"
	"ken/internal/gauss"
	"ken/internal/mat"
	"ken/internal/model"
	"ken/internal/model/modeltest"
	"ken/internal/trace"
)

// gardenCols extracts the first n temperature columns of the garden trace.
func gardenCols(t *testing.T, steps, n int) [][]float64 {
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

func gardenModel(t *testing.T, data [][]float64, train int) *model.LinearGaussian {
	t.Helper()
	lg, err := model.FitLinearGaussian(data[:train], model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// moments makes the one training pass every kernel of a test is sliced
// from, as cliques.Partition.Fit does.
func moments(t *testing.T, train [][]float64) *model.Moments {
	t.Helper()
	mo, err := model.NewMoments(train, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	return mo
}

// fitKernel fits the replica of a clique (members strictly increasing) from
// mo, with the clique's entries of the global bounds.
func fitKernel(t *testing.T, mo *model.Moments, eps []float64, members []int) *Kernel {
	t.Helper()
	m, err := mo.Fit(members)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(m, members, mat.Select(eps, members))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func constantKernel(t *testing.T, initial, eps []float64) *Kernel {
	t.Helper()
	k, err := New(modeltest.NewRandomWalk(initial, make([]float64, len(initial))), nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestChooseEmptyWhenAccurate(t *testing.T) {
	k := constantKernel(t, []float64{1, 2}, []float64{0.5, 0.5})
	idx, vals, err := k.Choose([]float64{1.1, 2.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 0 || len(vals) != 0 {
		t.Fatalf("report = %v %v, want empty", idx, vals)
	}
}

func TestChooseIndependentReportsExactlyTheViolators(t *testing.T) {
	k := constantKernel(t, []float64{0, 0, 0}, uniform(3, 0.5))
	idx, vals, err := k.Choose([]float64{5, 0.1, -3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The larger miss (attribute 0) is picked first; the pair still comes
	// back sorted by index.
	if !reflect.DeepEqual(idx, []int{0, 2}) || !reflect.DeepEqual(vals, []float64{5, -3}) {
		t.Fatalf("report = %v %v, want [0 2] [5 -3]", idx, vals)
	}
	// The buffers are reused: a second search starts clean.
	idx, _, err = k.Choose([]float64{0, 9, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{1}) {
		t.Fatalf("second report = %v, want [1]", idx)
	}
}

func TestChooseUsesCorrelation(t *testing.T) {
	// Strongly correlated pair where both predictions are off by the same
	// shared shift: reporting one attribute should fix both (the paper's
	// Figure 2 walk-through).
	data := gardenCols(t, 200, 2)
	eps := []float64{0.5, 0.5}
	k, err := New(gardenModel(t, data, 180), nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	k.Predict()
	mean := k.Mean()
	truth := []float64{mean[0] + 1.2, mean[1] + 1.2}
	idx, vals, err := k.Choose(truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 {
		t.Fatalf("report = %v, want a single attribute via spatial correlation", idx)
	}
	// And the guarantee holds after conditioning.
	if err := k.Commit(idx, vals); err != nil {
		t.Fatal(err)
	}
	if !model.WithinBounds(k.Mean(), truth, eps) {
		t.Fatal("post-report predictions violate ε")
	}
}

func TestChooseAmongCandidates(t *testing.T) {
	k := constantKernel(t, []float64{0, 0, 0}, uniform(3, 0.5))
	// Attribute 0 violates but its reading never reached the root;
	// attribute 2 violates and did: only 2 can be reported.
	idx, vals, err := k.Choose([]float64{7, 0.1, 5}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, []int{2}) || vals[0] != 5 {
		t.Fatalf("report = %v %v, want only attribute 2", idx, vals)
	}
	// No candidates: nothing to send, whatever the readings.
	idx, _, err = k.Choose([]float64{7, 7, 7}, []int{})
	if err != nil || len(idx) != 0 {
		t.Fatalf("no candidates: report = %v, err = %v", idx, err)
	}
	for _, bad := range [][]int{{3}, {-1}, {2, 1}, {1, 1}} {
		if _, _, err := k.Choose([]float64{0, 0, 0}, bad); err == nil {
			t.Fatalf("candidates %v accepted", bad)
		}
	}
	if _, _, err := k.Choose([]float64{0, 0}, nil); err == nil {
		t.Fatal("short reading vector accepted")
	}
}

// With every attribute a candidate, the partial search is the full search.
func TestChooseAmongAllMatchesChoose(t *testing.T) {
	data := gardenCols(t, 200, 2)
	k, err := New(gardenModel(t, data, 180), nil, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		k.Predict()
		mean := k.Mean()
		truth := []float64{mean[0] + rng.NormFloat64(), mean[1] + rng.NormFloat64()}
		idx, _, err := k.Choose(truth, nil)
		if err != nil {
			t.Fatal(err)
		}
		full := append([]int(nil), idx...)
		part, _, err := k.Choose(truth, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, append([]int(nil), part...)) {
			t.Fatalf("candidates [0 1] chose %v, nil chose %v", part, full)
		}
	}
}

// A singleton's only pick is its whole report: the search never consults the
// evaluator, hence never settles Σ for it.
func TestChooseSingletonSkipsEvaluator(t *testing.T) {
	data := gardenCols(t, 160, 1)
	lg := &countIC{LinearGaussian: gardenModel(t, data, 100)}
	k, err := New(lg, nil, uniform(1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	reported := 0
	for _, row := range data[100:] {
		n, err := k.Advance(row)
		if err != nil {
			t.Fatal(err)
		}
		reported += n
	}
	if reported == 0 || lg.resets != 0 {
		t.Fatalf("%d values reported, %d evaluator resets, want some and none", reported, lg.resets)
	}
}

// countIC counts the searches that reach the model's evaluator.
type countIC struct {
	*model.LinearGaussian
	resets int
}

func (c *countIC) CondReset() error {
	c.resets++
	return c.LinearGaussian.CondReset()
}

// A model mutated behind the kernel's back leaves the evaluator stale; the
// next search re-seeds it and answers.
func TestChooseRecoversFromStaleEvaluator(t *testing.T) {
	const n = 4
	data := gardenCols(t, 120, n)
	lg := gardenModel(t, data, 100)
	k, err := New(lg, nil, uniform(n, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	k.Predict()
	if _, _, err := k.Choose(data[100], nil); err != nil {
		t.Fatal(err)
	}
	lg.Step()
	idx, _, err := k.Choose(data[101], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) == 0 {
		t.Fatal("tight ε produced no report")
	}
}

func TestFullReportsEveryCandidate(t *testing.T) {
	k := constantKernel(t, []float64{0, 0, 0}, uniform(3, 0.5))
	idx, vals, err := k.Full([]float64{1, 2, 3}, nil)
	if err != nil || !reflect.DeepEqual(idx, []int{0, 1, 2}) || !reflect.DeepEqual(vals, []float64{1, 2, 3}) {
		t.Fatalf("Full(nil) = %v %v, %v", idx, vals, err)
	}
	idx, vals, err = k.Full([]float64{1, 2, 3}, []int{0, 2})
	if err != nil || !reflect.DeepEqual(idx, []int{0, 2}) || !reflect.DeepEqual(vals, []float64{1, 3}) {
		t.Fatalf("Full([0 2]) = %v %v, %v", idx, vals, err)
	}
}

// TestCheckReadings: the epoch-entry scan is the readings' only finiteness
// check (Choose and Full trust it), so it must catch NaN and both infinities
// wherever they sit.
func TestCheckReadings(t *testing.T) {
	if err := CheckReadings([]float64{1, -2, 0}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := 0; at < 3; at++ {
			truth := []float64{1, 2, 3}
			truth[at] = bad
			if err := CheckReadings(truth); !errors.Is(err, gauss.ErrNotFinite) {
				t.Fatalf("%v at %d: err = %v, want gauss.ErrNotFinite", bad, at, err)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	c := modeltest.NewRandomWalk([]float64{0, 0}, []float64{0, 0})
	cases := map[string]struct {
		members []int
		eps     []float64
	}{
		"eps length":        {nil, []float64{1}},
		"zero eps":          {nil, []float64{1, 0}},
		"NaN eps":           {nil, []float64{1, math.NaN()}},
		"members length":    {[]int{0}, []float64{1, 1}},
		"no members":        {[]int{}, []float64{}},
		"more than slots":   {[]int{0, 1, 2}, []float64{1, 1, 1}},
		"unsorted members":  {[]int{3, 1}, []float64{1, 1}},
		"duplicate members": {[]int{2, 2}, []float64{1, 1}},
		"negative member":   {[]int{-1, 2}, []float64{1, 1}},
	}
	for name, tc := range cases {
		if _, err := New(c, tc.members, tc.eps); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("nil model accepted")
	}
}

// TestKernelGathersAndScatters: a kernel over clique {1, 3} reads and
// writes only its members' slots of the global vectors, and a clone is an
// independent replica in the same state.
func TestKernelGathersAndScatters(t *testing.T) {
	data := gardenCols(t, 120, 5)
	k := fitKernel(t, moments(t, data[:100]), []float64{0.1, 0.2, 0.3, 0.4, 0.5}, []int{1, 3})
	if !reflect.DeepEqual(k.Eps(), []float64{0.2, 0.4}) || !reflect.DeepEqual(k.Members(), []int{1, 3}) {
		t.Fatalf("eps %v members %v", k.Eps(), k.Members())
	}
	want := model.MeanOf(k.Model())
	if got := k.Gather([]float64{10, 11, 12, 13, 14}); !reflect.DeepEqual(got, []float64{11, 13}) {
		t.Fatalf("Gather = %v", got)
	}
	est := uniform(5, -1)
	k.Scatter(est)
	if est[0] != -1 || est[2] != -1 || est[4] != -1 || est[1] != want[0] || est[3] != want[1] {
		t.Fatalf("Scatter wrote %v, mean %v", est, want)
	}
	cl := k.Clone()
	if !reflect.DeepEqual(model.MeanOf(cl.Model()), want) {
		t.Fatal("the clone starts in another state")
	}
	cl.Predict()
	if reflect.DeepEqual(model.MeanOf(cl.Model()), model.MeanOf(k.Model())) {
		t.Fatal("stepping the clone moved the original")
	}
}

// TestEvidenceSlot: a kernel over clique {1, 3} whose model has a third
// slot holds that slot as evidence — it is no member, has no bound, is never
// gathered, chosen or scattered, survives Clone, and observe pins it to the
// value it is handed.
func TestEvidenceSlot(t *testing.T) {
	data := gardenCols(t, 120, 5)
	m, err := moments(t, data[:100]).Fit([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(m, []int{1, 3}, []float64{1e-9, 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if cl := k.Clone(); k.Dim() != 2 || cl.Dim() != 2 || !reflect.DeepEqual(cl.ev, []int{2}) {
		t.Fatalf("Dim %d, clone's Dim %d and evidence %v: want 2 members, slot 2 evidence", k.Dim(), cl.Dim(), cl.ev)
	}
	k.Predict()
	if err := k.observe([]float64{42}); err != nil {
		t.Fatal(err)
	}
	if mean := k.Mean(); len(mean) != 3 || math.Abs(mean[2]-42) > 1e-9 {
		t.Fatalf("mean %v after predict given evidence 42", mean)
	}
	truth := []float64{10, 11, 12, 13, 14}
	if got := k.Gather(truth); !reflect.DeepEqual(got, []float64{11, 13}) {
		t.Fatalf("Gather = %v", got)
	}
	idx, vals, err := k.Choose(truth, nil)
	if err != nil || !reflect.DeepEqual(idx, []int{0, 1}) || !reflect.DeepEqual(vals, []float64{11, 13}) {
		t.Fatalf("Choose at ε = 1e-9: %v %v, err %v — want both members and nothing else", idx, vals, err)
	}
	est := uniform(5, -1)
	k.Scatter(est)
	if est[4] != -1 || est[0] != -1 || est[2] != -1 || est[1] == -1 || est[3] == -1 {
		t.Fatalf("Scatter wrote %v", est)
	}
}

// Advance is the whole epoch on a lone replica: after it the model is
// ε-accurate on the readings it was shown, and a non-finite reading is
// rejected before the model moves.
func TestAdvance(t *testing.T) {
	const n = 3
	data := gardenCols(t, 160, n)
	lg := gardenModel(t, data, 100)
	eps := uniform(n, 0.3)
	k, err := New(lg, nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, row := range data[100:] {
		reported, err := k.Advance(row)
		if err != nil {
			t.Fatal(err)
		}
		sent += reported
		if !model.WithinBounds(k.Mean(), row, eps) {
			t.Fatal("prediction misses ε after Advance")
		}
	}
	if sent == 0 || sent == n*60 {
		t.Fatalf("reported %d of %d values: the loop neither suppressed nor reported", sent, n*60)
	}
	clock, before := lg.Clock(), model.MeanOf(lg)
	if _, err := k.Advance([]float64{20, math.NaN(), 20}); !errors.Is(err, gauss.ErrNotFinite) {
		t.Fatalf("NaN reading: err = %v, want gauss.ErrNotFinite", err)
	}
	if lg.Clock() != clock || !reflect.DeepEqual(model.MeanOf(lg), before) {
		t.Fatal("a rejected epoch moved the model")
	}
}

// TestAllocBudgetKernel pins a whole epoch of the kernel on a
// LinearGaussian clique at zero heap allocations, on suppressed epochs
// (wide ε: one mean read), on reporting ones (tight ε: every candidate
// misses, so the evaluator search runs to the end and Commit conditions on
// all of them — the whole clique, half of it when only half is available,
// or a singleton clique's one attribute) and on heartbeats (Full reports
// every reading whatever ε says) — the committed budget table in
// docs/INVARIANTS.md.
func TestAllocBudgetKernel(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	const n = 4
	data := gardenCols(t, 400, n)
	for name, tc := range map[string]struct {
		width     int
		eps       float64
		cand      []int
		reported  int
		heartbeat bool
	}{
		"suppressed":                   {n, 1e6, nil, 0, false},
		"reporting":                    {n, 1e-9, nil, n, false},
		"reporting (half)":             {n, 1e-9, []int{0, 2}, 2, false},
		"reporting (singleton clique)": {1, 1e-9, nil, 1, false},
		"heartbeat":                    {n, 1e6, nil, n, true},
	} {
		rows := make([][]float64, len(data))
		for i, r := range data {
			rows[i] = r[:tc.width]
		}
		k, err := New(gardenModel(t, rows, 100), nil, uniform(tc.width, tc.eps))
		if err != nil {
			t.Fatal(err)
		}
		pick := (*Kernel).Choose
		if tc.heartbeat {
			pick = (*Kernel).Full
		}
		step := 100
		allocs := testing.AllocsPerRun(200, func() {
			k.Predict()
			idx, vals, err := pick(k, rows[step], tc.cand)
			if err != nil || len(idx) != tc.reported {
				t.Fatalf("%s: report %v, err %v", name, idx, err)
			}
			if err := k.Commit(idx, vals); err != nil {
				t.Fatal(err)
			}
			step++
		})
		if allocs != 0 {
			t.Errorf("%s epoch: %v allocs, budget 0", name, allocs)
		}
	}
}
