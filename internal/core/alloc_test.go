package core

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/model"
)

// TestAllocBudgetKenReplay pins a suppressed epoch — the steady state the
// paper's savings come from — at zero heap allocations: prediction, bound
// check and sink update all run against the kernels' scratch. Ken and
// LossyKen share one loop, so they share the budget. Bounds far wider than
// the signal make every epoch suppress deterministically. (A reporting
// epoch allocates only the StepStats.Reported list it hands back; the
// kernel's own reporting work is pinned at zero in internal/protocol.)
func TestAllocBudgetKenReplay(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	train, test, _ := gardenData(t, 4, 100, 10)
	cfg := KenConfig{
		Partition: pairPartition(4),
		Train:     train,
		Eps:       []float64{100, 100, 100, 100},
		FitCfg:    model.FitConfig{Period: 24},
	}
	ken, err := NewKen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := NewLossyKen(cfg, LossyConfig{LossRate: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := test[0]
	for _, s := range []Scheme{ken, lossy} {
		if got := testing.AllocsPerRun(100, func() {
			_, st, err := s.Step(row)
			if err != nil {
				t.Fatal(err)
			}
			if st.ValuesReported != 0 {
				t.Fatal("epoch reported despite wide bounds — budget premise broken")
			}
		}); got != 0 {
			t.Errorf("suppressed %s epoch: %v allocs/op, budget 0", s.Name(), got)
		}
	}
}
