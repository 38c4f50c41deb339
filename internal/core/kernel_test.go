package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ken/internal/gauss"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/protocol"
)

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestRunReportedAttrsAreDeterministic: two runs of one configuration list
// the reported attributes in StepStats.Reported in the same order — clique
// by clique, ascending within a clique — where map iteration used to shuffle
// them. The oracle holds Step's report sets; this holds them through Run.
func TestRunReportedAttrsAreDeterministic(t *testing.T) {
	train, test, eps := labData(t, 49, 100, 300)
	run := func() [][]int {
		s, err := NewKen(KenConfig{Partition: runs(49, 8), Train: train, Eps: eps, FitCfg: model.FitConfig{Period: 24}})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{Scheme: s}
		if _, err := Run(context.Background(), rec, test, RunOptions{Eps: eps}); err != nil {
			t.Fatal(err)
		}
		return rec.reported
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs listed their reported attributes in different orders")
	}
	multi := 0
	for step, attrs := range a {
		for j := 1; j < len(attrs); j++ {
			if attrs[j] <= attrs[j-1] {
				t.Fatalf("step %d: reported %v, want ascending (consecutive cliques)", step, attrs)
			}
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no step reported two values — ordering was never exercised")
	}
}

// TestStepRejectsNonFiniteReadingBeforeMoving: a NaN or Inf reading is a
// typed error from every scheme — Ken and LossyKen on ordinary and heartbeat
// epochs, and the baselines that never touch the kernel — and the scheme
// carries on exactly as if the bad epoch had never been offered: nothing
// stepped, no cache or average poisoned, no counter moved. A NaN compares
// false against every bound, so unchecked it is suppressed silently: Ken
// used to fail on the next heartbeat after earlier cliques had committed,
// Average served the node's stale prediction and then failed the NEXT epoch
// on its poisoned average, ApC served its stale cached value as if it were
// within ε, and TinyDB copied the NaN into the answer.
func TestStepRejectsNonFiniteReadingBeforeMoving(t *testing.T) {
	train, test, eps := gardenData(t, 6, 100, 40)
	cfg := KenConfig{Partition: runs(6, 2), Train: train, Eps: eps, FitCfg: model.FitConfig{Period: 24}}
	scheme := func(s Scheme, err error) Scheme {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// observed is cfg publishing to its own registry, one per scheme built.
	observed := func(reg *obs.Registry) KenConfig {
		c := cfg
		c.Obs = &obs.Observer{Reg: reg}
		return c
	}
	build := map[string]func(reg *obs.Registry) Scheme{
		"Ken": func(reg *obs.Registry) Scheme { return scheme(NewKen(observed(reg))) },
		"LossyKen": func(reg *obs.Registry) Scheme {
			return scheme(NewLossyKen(observed(reg), LossyConfig{LossRate: 0.3, HeartbeatEvery: 4, Seed: 9}))
		},
		"Avg":    func(*obs.Registry) Scheme { return scheme(NewAverage(train, eps, cfg.FitCfg, nil)) },
		"ApC":    func(*obs.Registry) Scheme { return scheme(NewCache(eps, nil)) },
		"TinyDB": func(*obs.Registry) Scheme { return scheme(NewTinyDB(len(eps), nil)) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			gotReg, refReg := obs.NewRegistry(), obs.NewRegistry()
			got, ref := mk(gotReg), mk(refReg)
			for step, row := range test {
				// Offer a poisoned copy of every epoch first — step 3, 7, … are
				// LossyKen's heartbeats. The bad value sits in the last clique.
				bad := append([]float64(nil), row...)
				bad[5] = math.NaN()
				if step%2 == 1 {
					bad[5] = math.Inf(-1)
				}
				if _, _, err := got.Step(bad); !errors.Is(err, gauss.ErrNotFinite) {
					t.Fatalf("%s step %d: err = %v, want gauss.ErrNotFinite", name, step, err)
				}
				ge, gs, err := got.Step(row)
				if err != nil {
					t.Fatal(err)
				}
				re, rs, err := ref.Step(row)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gs, rs) || !sameBits(ge, re) {
					t.Fatalf("%s step %d: a rejected epoch changed what followed", name, step)
				}
			}
			if _, ok := got.(*LossyKen); ok {
				beats, lost := "ken_heartbeats_total", "ken_lost_reports_total"
				gb, rb := gotReg.Counter(beats).Value(), refReg.Counter(beats).Value()
				gl, rl := gotReg.Counter(lost).Value(), refReg.Counter(lost).Value()
				if gb != rb || gl != rl || gb == 0 {
					t.Fatalf("counters moved on rejected epochs: %d/%d heartbeats, %d/%d lost", gb, rb, gl, rl)
				}
			}
		})
	}
}

// TestChooseExhaustiveMatchesOrBeatsGreedy checks the subset enumeration
// step by step on a 4-attribute clique: its report restores ε under the
// model's evaluator, is never larger than the greedy search's
// (which must restore ε too), and is truly minimal — no smaller subset, tried
// here by bitmask rather than by the enumeration's own combination stepping,
// satisfies the bounds.
func TestChooseExhaustiveMatchesOrBeatsGreedy(t *testing.T) {
	const n = 4
	train, _, eps := gardenData(t, n, 180, 1)
	mo, err := model.NewMoments(train, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mo.Fit([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := protocol.New(m, []int{0, 1, 2, 3}, eps)
	if err != nil {
		t.Fatal(err)
	}
	restores := func(k *protocol.Kernel, truth []float64, idx []int, vals []float64) bool {
		m, mean := k.Model(), make([]float64, len(truth))
		if err := m.CondReset(); err != nil {
			t.Fatal(err)
		}
		for j, i := range idx {
			if err := m.CondAdd(i, vals[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CondMeanInto(mean); err != nil {
			t.Fatal(err)
		}
		return model.WithinBounds(mean, truth, eps)
	}
	rng := rand.New(rand.NewSource(5))
	sizes := map[int]int{}
	beat := 0
	ex := new(Ken) // one search scratch across every trial
	for trial := 0; trial < 60; trial++ {
		proto.Predict()
		truth := append([]float64(nil), proto.Mean()...)
		for i := range truth {
			truth[i] += rng.NormFloat64() * 0.6
		}
		// One kernel state, two searches on clones of it.
		gk, ek := proto.Clone(), proto.Clone()
		gIdx, gVals, err := gk.Choose(truth, nil)
		if err != nil {
			t.Fatal(err)
		}
		eIdx, eVals, err := ex.chooseExhaustive(ek, truth, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(eIdx) > len(gIdx) {
			t.Fatalf("trial %d: exhaustive reports %v, greedy only %v", trial, eIdx, gIdx)
		}
		if !restores(proto, truth, gIdx, gVals) {
			t.Fatalf("trial %d: greedy report %v does not restore ε", trial, gIdx)
		}
		if !restores(proto, truth, eIdx, eVals) {
			t.Fatalf("trial %d: exhaustive report %v does not restore ε", trial, eIdx)
		}
		for j, i := range eIdx {
			if (j > 0 && i <= eIdx[j-1]) || eVals[j] != truth[i] {
				t.Fatalf("trial %d: exhaustive report %v %v is not a sorted pair of readings", trial, eIdx, eVals)
			}
		}
		for mask := 0; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) >= len(eIdx) {
				continue
			}
			var idx []int
			var vals []float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					idx, vals = append(idx, i), append(vals, truth[i])
				}
			}
			if restores(proto, truth, idx, vals) {
				t.Fatalf("trial %d: exhaustive reports %v but the smaller %v already restores ε", trial, eIdx, idx)
			}
		}
		sizes[len(eIdx)]++
		if len(eIdx) < len(gIdx) {
			beat++
		}
		// Carry on from the greedy report so later trials start off-prior.
		if err := proto.Commit(gIdx, gVals); err != nil {
			t.Fatal(err)
		}
	}
	if sizes[1] == 0 || sizes[2] == 0 || sizes[3]+sizes[4] == 0 {
		t.Fatalf("report sizes %v: the enumeration was not exercised at every size", sizes)
	}
	t.Logf("exhaustive report sizes %v; strictly smaller than greedy in %d trials", sizes, beat)
}

// TestExhaustiveRefusesLargeCliques: past 20 attributes the enumeration is
// infeasible and says so instead of starting. Reaching the guard through
// both schemes also shows LossyKen runs the wrapped Ken's report policy.
func TestExhaustiveRefusesLargeCliques(t *testing.T) {
	train, test, eps := labData(t, 49, 100, 1)
	cfg := KenConfig{Partition: runs(49, 25), Train: train, Eps: eps, FitCfg: model.FitConfig{Period: 24}, Exhaustive: true}
	ken, err := NewKen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := NewLossyKen(cfg, LossyConfig{LossRate: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Scheme{"Ken": ken, "LossyKen": lossy} {
		if _, _, err := s.Step(test[0]); err == nil || !strings.Contains(err.Error(), "infeasible") {
			t.Fatalf("%s: err = %v, want the exhaustive search to refuse a 25-clique", name, err)
		}
	}
}
