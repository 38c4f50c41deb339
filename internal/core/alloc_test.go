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
// one loop, so they share the budget — and of the baselines at zero. A
// suppressed epoch, the steady state the paper's savings come from, runs
// prediction, bound check and sink update against the kernels' scratch; a
// reporting epoch hands back the loop's own record as StepStats.Reported
// (the kernel's reporting work is pinned at zero in internal/protocol),
// whether it is priced on a topology, timed into a metrics registry, thinned
// by loss or a heartbeat, re-twinning the sink after a loss or picked by
// §6's coin flips. TinyDB, ApC and Avg reuse one estimate buffer and one
// report list. With metrics
// attached an epoch makes no registry lookup, and neither does a replay's
// epoch loop; and a replay keeps totals only, so it allocates as much over
// every test row as over two. Bounds far wider than the signal make every
// epoch suppress deterministically, bounds far tighter make every epoch
// report them all.
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
	probable := config(1e-9)
	probable.Prob = &ProbConfig{Steepness: 1e9, Seed: 1} // every violation's coin lands "report"
	tight := []float64{1e-9, 1e-9, 1e-9, 1e-9}
	tinydb, err := NewTinyDB(n, chain)
	if err != nil {
		t.Fatal(err)
	}
	apc, err := NewCache(tight, chain)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := NewAverage(train, tight, model.FitConfig{Period: 24}, chain)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		s        Scheme
		reported int
	}{
		{"suppressed Ken", ken(config(100)), 0},
		{"suppressed Ken, metrics attached", ken(observed(config(100))), 0},
		{"suppressed LossyKen", lossy(config(100), LossyConfig{LossRate: 0.2, Seed: 1}), 0},
		{"reporting Ken", ken(config(1e-9)), n},
		{"reporting Ken, topology-costed, metrics attached", ken(costed), n},
		{"reporting LossyKen at 50% loss", lossy(config(1e-9), LossyConfig{LossRate: 0.5, Seed: 1}), n},
		{"reporting LossyKen at 50% loss, metrics attached", lossy(observed(config(1e-9)), LossyConfig{LossRate: 0.5, Seed: 1}), n},
		{"heartbeat LossyKen", lossy(config(100), LossyConfig{LossRate: 0.5, HeartbeatEvery: 1, Seed: 1}), n},
		{"probabilistic Ken", ken(probable), n},
		{"TinyDB", tinydb, n},
		{"reporting ApC", apc, n},
		{"reporting Avg", avg, n},
	} {
		// Alternating rows keep ApC's readings drifting past its cache.
		step := 0
		if got, lookups := alloctest.Run(100, reg, func() {
			_, st, err := tc.s.Step(test[step%2])
			if err != nil {
				t.Fatal(err)
			}
			step++
			if st.ValuesReported != tc.reported || len(st.Reported) != tc.reported {
				t.Fatalf("%s: %d values reported, %d listed, want %d — budget premise broken", tc.name, st.ValuesReported, len(st.Reported), tc.reported)
			}
		}); got != 0 || lookups != 0 {
			t.Errorf("%s epoch: %v allocs/op, %d registry lookups (budget 0 and 0)", tc.name, got, lookups)
		}
		allocs := func(rows int) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := Run(context.Background(), tc.s, test[:rows], RunOptions{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, all := allocs(2), allocs(len(test)); few != all {
			t.Errorf("core.Run %s: %v allocs over 2 epochs, %v over %d", tc.name, few, all, len(test))
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
	// pair.
	l := lossy(config(1e-9), LossyConfig{LossRate: 0.9, HeartbeatEvery: 2, Seed: 1}).(*LossyKen)
	if got := testing.AllocsPerRun(100, func() {
		lost, beats := 0, 0
		for range 2 {
			if _, st, err := l.Step(test[0]); err != nil || st.ValuesReported != n {
				t.Fatalf("%d values reported, err %v — budget premise broken", st.ValuesReported, err)
			}
			lost += l.loop.Lost
			if l.loop.Heartbeat {
				beats++
			}
		}
		if lost == 0 || beats != 1 {
			t.Fatalf("%d values lost, %d heartbeats: not a lossy epoch and a heartbeat — budget premise broken", lost, beats)
		}
	}); got != 0 {
		t.Errorf("lossy epoch + re-twinning heartbeat: %v allocs/op, budget 0", got)
	}
}
