package stream

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/obs"
	"ken/internal/wire"
)

// TestAllocBudgetStream pins the endpoints' steady state — suppressed
// source epochs and empty sink frames — at zero heap allocations per step
// (the committed budget table in docs/INVARIANTS.md). A source step with
// metrics attached makes no registry lookup, suppressed or reporting every
// value; a reporting step allocates only the frame it hands back: its Attrs
// and Values, one exact-length copy each of the scratch the frame was built
// in, two allocations however many values it carries. Bounds far wider
// than the signal make every step suppress deterministically, bounds far
// tighter make every step report.
func TestAllocBudgetStream(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	reg := obs.NewRegistry()
	for _, tc := range []struct {
		name   string
		eps    float64
		ob     *obs.Observer
		budget float64
	}{
		{"suppressed", 100, nil, 0},
		{"suppressed, metrics attached", 100, &obs.Observer{Reg: reg}, 0},
		{"reporting, metrics attached", 1e-6, &obs.Observer{Reg: reg}, 2},
	} {
		cfg, test := testConfig(t)
		for i := range cfg.Eps {
			cfg.Eps[i] = tc.eps
		}
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.Instrument(tc.ob)
		want := 0
		if tc.eps < 1 {
			want = len(cfg.Eps)
		}
		next := 0
		if got, lookups := alloctest.Run(100, reg, func() {
			f, err := src.Collect(test[next])
			if err != nil {
				t.Fatal(err)
			}
			if len(f.Attrs) != want {
				t.Fatalf("%s: step reported %d of %d values — budget premise broken", tc.name, len(f.Attrs), len(cfg.Eps))
			}
			next++
		}); got != tc.budget || lookups != 0 {
			t.Errorf("%s Source.Collect: %v allocs/op (budget %v), %d registry lookups (budget 0)", tc.name, got, tc.budget, lookups)
		}
	}

	cfg, _ := testConfig(t)
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var step uint64
	if got := testing.AllocsPerRun(100, func() {
		if err := rep.Apply(wire.Frame{Step: step}); err != nil {
			t.Fatal(err)
		}
		step++
	}); got != 0 {
		t.Errorf("empty Replica.Apply: %v allocs/op, budget 0", got)
	}
}
