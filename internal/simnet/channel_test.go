package simnet

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/trace"
)

// blockPartition covers 0..n-1 with consecutive cliques of at most k, rooted
// at their first member.
func blockPartition(n, k int) *cliques.Partition {
	p := &cliques.Partition{}
	for lo := 0; lo < n; lo += k {
		var members []int
		for g := lo; g < n && g < lo+k; g++ {
			members = append(members, g)
		}
		p.Cliques = append(p.Cliques, cliques.Clique{Members: members, Root: lo})
	}
	return p
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestChannelContract: a channel that loses nothing is the perfect channel.
// The same rows and partition go through core.Ken (perfect), core.LossyKen at
// rate 0 without heartbeats (the Bernoulli channel, no coin flipped) and
// DistributedKen on a loss-free radio with ample battery, and epoch by epoch
// the three agree on the report set, in order, and on the estimates to the
// last bit — whichever report policy the configuration names (the radio only
// runs the greedy one). One loop serves all three, so what this pins is each
// channel's answers: all readings collected, everything delivered, nothing
// rewritten.
func TestChannelContract(t *testing.T) {
	for _, row := range []struct {
		name       string
		lab        bool
		k          int
		exhaustive bool
	}{
		{"garden pairs", false, 2, false},
		{"lab k=8", true, 8, false},
		{"garden k=4 exhaustive", false, 4, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			gen := trace.GenerateGarden
			if row.lab {
				gen = trace.GenerateLab
			}
			tr, err := gen(42, 300)
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
			part := blockPartition(n, row.k)
			fit := model.FitConfig{Period: 24}
			kcfg := core.KenConfig{Partition: part, Train: train, Eps: eps, FitCfg: fit, Exhaustive: row.exhaustive}
			perfect, err := core.NewKen(kcfg)
			if err != nil {
				t.Fatal(err)
			}
			coins, err := core.NewLossyKen(kcfg, core.LossyConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var radio *DistributedKen
			if !row.exhaustive {
				top, err := network.Uniform(n, 1, 3)
				if err != nil {
					t.Fatal(err)
				}
				net, err := New(top, DefaultRadio(), 15)
				if err != nil {
					t.Fatal(err)
				}
				if radio, err = NewDistributedKenConfig(net, part, train, eps, fit, KenNetConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			reported := 0
			for step, truth := range test {
				pe, ps, err := perfect.Step(truth)
				if err != nil {
					t.Fatal(err)
				}
				ce, cs, err := coins.Step(truth)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ps, cs) || !sameBits(pe, ce) {
					t.Fatalf("step %d: the Bernoulli channel at rate 0 is not the perfect channel: stats %+v vs %+v", step, cs, ps)
				}
				reported += ps.ValuesReported
				if radio == nil {
					continue
				}
				res, err := radio.Epoch(truth)
				if err != nil {
					t.Fatal(err)
				}
				if got := radio.loop.Reported; !slices.Equal(got, ps.Reported) {
					t.Fatalf("step %d: the radio reported %v, the perfect channel %v", step, got, ps.Reported)
				}
				if res.ValuesDelivered != ps.ValuesReported || res.Violations != 0 {
					t.Fatalf("step %d: a loss-free radio delivered %d of %d values with %d violations",
						step, res.ValuesDelivered, ps.ValuesReported, res.Violations)
				}
				if !sameBits(res.Estimates, pe) {
					t.Fatalf("step %d: radio and perfect-channel estimates differ in bits", step)
				}
			}
			if reported == 0 {
				t.Fatal("nothing reported — the comparison never saw a report")
			}
		})
	}
}
