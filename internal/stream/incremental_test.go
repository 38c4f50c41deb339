package stream

import (
	"reflect"
	"testing"

	"ken/internal/model"
	"ken/internal/protocol"
)

// scratchStreamModel hides model.IncrementalConditioner so the greedy
// report search runs on the from-scratch MeanGiven reference path.
type scratchStreamModel struct{ model.Model }

func (s scratchStreamModel) Clone() model.Model { return scratchStreamModel{s.Model.Clone()} }

// TestStreamLockStepScratch pins the package invariant advertised in the
// package doc: with the source's greedy search running through the cached
// incremental conditioning evaluator, every frame carries exactly the
// report set the from-scratch reference search would have chosen, and the
// sink replica's answers stay bitwise identical to an independent
// simulation of the protocol on a model with the evaluator hidden.
func TestStreamLockStepScratch(t *testing.T) {
	cfg, rows := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := src.Resolution()

	// Rebuild the per-clique replicas exactly as build does
	// (FitLinearGaussian is deterministic), but wrapped so only the Model
	// interface is visible to the kernel's search.
	n := len(cfg.Train[0])
	eff := make([]float64, n)
	for g, e := range cfg.Eps {
		eff[g] = e - res/2 // as on the wire
	}
	var sim []*protocol.Kernel
	for _, c := range cfg.Partition.Cliques {
		k, err := protocol.Fit(cfg.Train, eff, c.Members, func(cols [][]float64) (model.Model, error) {
			m, err := model.FitLinearGaussian(cols, cfg.FitCfg)
			return scratchStreamModel{m}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		sim = append(sim, k)
	}

	est := make([]float64, n)
	var st ApplyStats
	totalReported := 0
	for step, truth := range rows[:120] {
		frame, err := src.Collect(truth)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyObserved(frame, &st); err != nil {
			t.Fatal(err)
		}
		// The scratch simulation rebuilds the frame: clique by clique,
		// ascending within a clique, values on the wire grid.
		var attrs []int
		var values []float64
		for _, c := range sim {
			c.Predict()
			idx, vals, err := c.Choose(truth, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range idx {
				vals[j] = quantize(vals[j], res)
				attrs = append(attrs, c.Members()[i])
				values = append(values, vals[j])
			}
			if err := c.Commit(idx, vals); err != nil {
				t.Fatal(err)
			}
			c.Scatter(est)
		}
		if !reflect.DeepEqual(attrs, frame.Attrs) || !reflect.DeepEqual(values, frame.Values) {
			t.Fatalf("step %d: frame carried %v = %v, scratch search chose %v = %v",
				step, frame.Attrs, frame.Values, attrs, values)
		}
		got := rep.Estimates()
		for g := range got {
			if got[g] != est[g] {
				t.Fatalf("step %d: sink answer for attr %d is %v, scratch replica says %v", step, g, got[g], est[g])
			}
		}
		totalReported += len(frame.Attrs)
	}
	if totalReported == 0 {
		t.Fatal("no value reported across the replay — the search was never exercised; tighten eps")
	}
}
