package core

import (
	"context"
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
// heartbeat, or re-twinning the sink after a loss. With metrics attached an
// epoch makes no registry lookup, and neither does a replay's epoch loop.
// Bounds far wider than the signal make every epoch suppress
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
			Partition: runs(n, 2),
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
	reg := obs.NewRegistry()
	ob := &obs.Observer{Reg: reg}
	observed := func(cfg KenConfig) KenConfig {
		cfg.Obs = ob
		return cfg
	}
	costed := observed(config(1e-9))
	costed.Topology = chain
	for _, tc := range []struct {
		name     string
		s        Scheme
		reported int
		budget   float64
	}{
		{"suppressed Ken", ken(config(100)), 0, 0},
		{"suppressed Ken, metrics attached", ken(observed(config(100))), 0, 0},
		{"suppressed LossyKen", lossy(config(100), LossyConfig{LossRate: 0.2, Seed: 1}), 0, 0},
		{"reporting Ken", ken(config(1e-9)), n, 1},
		{"reporting Ken, topology-costed, metrics attached", ken(costed), n, 1},
		{"reporting LossyKen at 50% loss", lossy(config(1e-9), LossyConfig{LossRate: 0.5, Seed: 1}), n, 1},
		{"reporting LossyKen at 50% loss, metrics attached", lossy(observed(config(1e-9)), LossyConfig{LossRate: 0.5, Seed: 1}), n, 1},
		{"heartbeat LossyKen", lossy(config(100), LossyConfig{LossRate: 0.5, HeartbeatEvery: 1, Seed: 1}), n, 1},
	} {
		row := test[0]
		if got, lookups := alloctest.Run(100, reg, func() {
			_, st, err := tc.s.Step(row)
			if err != nil {
				t.Fatal(err)
			}
			if st.ValuesReported != tc.reported {
				t.Fatalf("%s: %d values reported, want %d — budget premise broken", tc.name, st.ValuesReported, tc.reported)
			}
		}); got != tc.budget || lookups != 0 {
			t.Errorf("%s epoch: %v allocs/op (budget %v), %d registry lookups (budget 0)", tc.name, got, tc.budget, lookups)
		}
	}
	// core.Run resolves its handles and its scoped view once per replay, so
	// a replay of every test row makes no more lookups than one of two.
	for _, s := range []Scheme{
		ken(observed(config(1))),
		lossy(observed(config(1)), LossyConfig{LossRate: 0.5, HeartbeatEvery: 3, Seed: 1}),
	} {
		lookups := func(rows int) int64 {
			before := reg.Lookups()
			if _, err := Run(context.Background(), s, test[:rows], RunOptions{Observer: ob, Scope: "cell"}); err != nil {
				t.Fatal(err)
			}
			return reg.Lookups() - before
		}
		if few, all := lookups(2), lookups(len(test)); few != all {
			t.Errorf("core.Run %T: %d registry lookups over 2 epochs, %d over %d", s, few, all, len(test))
		}
	}
	// The epoch that re-twins a sink: a whole heartbeat after an epoch that
	// lost values. Every other epoch is a heartbeat, so each call runs the
	// pair, and the budget is its two Reported lists.
	l := lossy(config(1e-9), LossyConfig{LossRate: 0.9, HeartbeatEvery: 2, Seed: 1}).(*LossyKen)
	if got := testing.AllocsPerRun(100, func() {
		lost, beats := l.LostMessages, l.Heartbeats
		for range 2 {
			if _, st, err := l.Step(test[0]); err != nil || st.ValuesReported != n {
				t.Fatalf("%d values reported, err %v — budget premise broken", st.ValuesReported, err)
			}
		}
		if l.LostMessages == lost || l.Heartbeats != beats+1 {
			t.Fatalf("%d values lost, %d heartbeats: not a lossy epoch and a heartbeat — budget premise broken", l.LostMessages-lost, l.Heartbeats-beats)
		}
	}); got != 2 {
		t.Errorf("lossy epoch + re-twinning heartbeat: %v allocs/op, budget 2", got)
	}
}
