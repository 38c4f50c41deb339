package core

import (
	"context"
	"reflect"
	"testing"

	"ken/internal/model"
)

// scratchModel hides model.IncrementalConditioner so the greedy report
// search runs on the from-scratch MeanGiven reference path.
type scratchModel struct{ model.Model }

func (s scratchModel) Clone() model.Model { return scratchModel{s.Model.Clone()} }

// A full Ken replay must make identical per-epoch report decisions and
// produce bitwise-identical sink answers whether or not the incremental
// conditioning evaluator engages: the evaluator is a source-side search
// accelerator, never a semantics change. This is the scheme-level version
// of protocol.TestChooseIncrementalMatchesScratch.
func TestKenIncrementalSearchMatchesScratch(t *testing.T) {
	const n = 6
	train, test, _ := gardenData(t, n, 100, 60)
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.3
	}
	fitCfg := model.FitConfig{Period: 24}
	fast, err := NewKen(KenConfig{
		Partition: pairPartition(n),
		Train:     train,
		Eps:       eps,
		FitCfg:    fitCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewKen(KenConfig{
		Partition: pairPartition(n),
		Train:     train,
		Eps:       eps,
		ModelFactory: func(cols [][]float64) (model.Model, error) {
			m, err := model.FitLinearGaussian(cols, fitCfg)
			if err != nil {
				return nil, err
			}
			return scratchModel{m}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reportedEpochs := 0
	for step, truth := range test {
		fe, fs, err := fast.Step(truth)
		if err != nil {
			t.Fatal(err)
		}
		se, ss, err := slow.Step(truth)
		if err != nil {
			t.Fatal(err)
		}
		if fs.ValuesReported != ss.ValuesReported {
			t.Fatalf("step %d: incremental reported %d values, scratch %d", step, fs.ValuesReported, ss.ValuesReported)
		}
		if !reflect.DeepEqual(fs.Reported, ss.Reported) {
			t.Fatalf("step %d: incremental reported %v, scratch %v", step, fs.Reported, ss.Reported)
		}
		for i := range fe {
			if fe[i] != se[i] {
				t.Fatalf("step %d: sink answers diverge at attribute %d: %v vs %v", step, i, fe[i], se[i])
			}
		}
		if fs.ValuesReported > 0 {
			reportedEpochs++
		}
	}
	if reportedEpochs == 0 {
		t.Fatal("no epoch reported — the search was never exercised; tighten eps")
	}
}

// The incremental evaluator must not cost the ε guarantee: a standard Run
// over the same replay keeps zero bound violations.
func TestKenIncrementalGuaranteeHolds(t *testing.T) {
	const n = 6
	train, test, eps := gardenData(t, n, 100, 60)
	s, err := NewKen(KenConfig{
		Partition: pairPartition(n),
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, test, RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Fatalf("bound violations %d with the incremental search engaged", res.BoundViolations)
	}
}
