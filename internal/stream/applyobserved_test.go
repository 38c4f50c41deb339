package stream

import (
	"testing"

	"ken/internal/alloctest"
	"ken/internal/wire"
)

// TestApplyObservedMeasuresDeviations drives a real source/replica pair
// and checks the pre-apply deviation accounting: an empty frame measures
// nothing, and every reporting frame must show at least one deviation —
// the source reported precisely because its (lock-step identical)
// prediction missed ε.
func TestApplyObservedMeasuresDeviations(t *testing.T) {
	cfg, test := testConfig(t)
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var reporting, deviating int
	var st ApplyStats
	for step, row := range test[:120] {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.ApplyObserved(f, &st); err != nil {
			t.Fatal(err)
		}
		if st.Step != uint64(step) || st.Values != len(f.Attrs) {
			t.Fatalf("step %d: stats {step %d, values %d}, frame has %d attrs", step, st.Step, st.Values, len(f.Attrs))
		}
		if st.Heartbeat != (f.Special == wire.KindHeartbeat) {
			t.Fatalf("step %d: heartbeat flag %v, frame special %v", step, st.Heartbeat, f.Special)
		}
		if len(f.Attrs) == 0 {
			if st.Deviations != 0 || st.MaxDevEps != 0 {
				t.Fatalf("step %d: empty frame measured deviations=%d maxDev=%v", step, st.Deviations, st.MaxDevEps)
			}
			continue
		}
		reporting++
		if st.Deviations > 0 {
			deviating++
			if st.MaxDevEps <= 1 {
				t.Fatalf("step %d: %d deviations but maxDev=%v ≤ 1ε", step, st.Deviations, st.MaxDevEps)
			}
		}
	}
	if reporting == 0 {
		t.Fatal("no reporting frames in 120 steps — test premise broken")
	}
	if deviating == 0 {
		t.Errorf("0 of %d reporting frames measured a deviation — lock-step says each report is one", reporting)
	}
}

// TestApplyObservedFlagsWildValue pins the divergence-sentinel input: a
// hand-built frame carrying a value far outside the model's range must
// measure a deviation of many ε.
func TestApplyObservedFlagsWildValue(t *testing.T) {
	cfg, _ := testConfig(t)
	sink, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st ApplyStats
	f := wire.Frame{Step: 0, Attrs: []int{0}, Values: []float64{1e6}}
	if err := sink.ApplyObserved(f, &st); err != nil {
		t.Fatal(err)
	}
	if st.Deviations != 1 {
		t.Fatalf("deviations=%d, want 1", st.Deviations)
	}
	if st.MaxDevEps < 100 {
		t.Fatalf("maxDev=%v ε, want ≥ 100 for a value 1e6 off", st.MaxDevEps)
	}
}

// TestAllocBudgetApplyObserved extends the stream budget to full frames on
// the measured apply path: with ε so tight that every clique reports every
// value every step, or with a heartbeat every step, validating, routing,
// measuring and conditioning a frame must still allocate nothing.
func TestAllocBudgetApplyObserved(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	for _, tc := range []struct {
		name      string
		eps       float64
		heartbeat int
	}{
		{"reporting", 1e-6, 0},
		{"heartbeat", 100, 1},
	} {
		cfg, test := testConfig(t)
		for i := range cfg.Eps {
			cfg.Eps[i] = tc.eps
		}
		cfg.HeartbeatEvery = tc.heartbeat
		src, err := NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 100
		frames := make([]wire.Frame, runs+1) // AllocsPerRun warms up once
		for i := range frames {
			if frames[i], err = src.Collect(test[i]); err != nil {
				t.Fatal(err)
			}
			if len(frames[i].Attrs) != len(cfg.Eps) || (frames[i].Special == wire.KindHeartbeat) != (tc.heartbeat > 0) {
				t.Fatalf("%s: frame %d carries %d of %d values, kind %v — budget premise broken",
					tc.name, i, len(frames[i].Attrs), len(cfg.Eps), frames[i].Special)
			}
		}
		var st ApplyStats
		next := 0
		if got := testing.AllocsPerRun(runs, func() {
			if err := rep.ApplyObserved(frames[next], &st); err != nil {
				t.Fatal(err)
			}
			next++
		}); got != 0 {
			t.Errorf("%s ApplyObserved: %v allocs/op, budget 0", tc.name, got)
		}
	}
}
