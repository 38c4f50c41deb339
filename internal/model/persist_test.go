package model

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestLinearGaussianJSONRoundTrip(t *testing.T) {
	data := garden2Cols(t, 150)
	lg, err := FitLinearGaussian(data[:120], FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Advance and condition so the state is non-trivial.
	lg.Step()
	if err := lg.Condition([]int{0}, []float64{17.5}); err != nil {
		t.Fatal(err)
	}

	buf, err := json.Marshal(lg)
	if err != nil {
		t.Fatal(err)
	}
	loaded := new(LinearGaussian)
	if err := json.Unmarshal(buf, loaded); err != nil {
		t.Fatal(err)
	}

	// The reloaded replica must stay in lock-step with the original.
	a, b := lg.Clone(), loaded.Clone()
	for step := 0; step < 10; step++ {
		a.Step()
		b.Step()
		idx, vals := []int{step % 2}, []float64{16 + float64(step)*0.1}
		if err := a.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := b.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		ma, mb := MeanOf(a), MeanOf(b)
		for i := range ma {
			if diff := ma[i] - mb[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("replicas diverged after reload at step %d: %v vs %v", step, ma, mb)
			}
		}
	}
	if loaded.Clock() != lg.Clock() {
		t.Fatalf("clock = %d, want %d", loaded.Clock(), lg.Clock())
	}
}

func TestLoadLinearGaussianRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"zero dimension": `{"n":0}`,
		"missing matrix": `{"n":2,"profile":[[1,2]],"period":1,"state_mean":[1,2]}`,
		"shape mismatch": `{"n":2,"a":{"rows":[[1]]},"q":{"rows":[[1,0],[0,1]]},"profile":[[1,2]],"period":1,"clock":0,"state_mean":[1,2],"state_cov":{"rows":[[1,0],[0,1]]}}`,
		"bad profile":    `{"n":1,"a":{"rows":[[1]]},"q":{"rows":[[1]]},"profile":[[1],[2]],"period":1,"clock":0,"state_mean":[1],"state_cov":{"rows":[[1]]}}`,
		"bad state":      `{"n":1,"a":{"rows":[[1]]},"q":{"rows":[[1]]},"profile":[[1]],"period":1,"clock":0,"state_mean":[1,2],"state_cov":{"rows":[[1]]}}`,
		"negative clock": `{"n":1,"a":{"rows":[[1]]},"q":{"rows":[[1]]},"profile":[[1],[2]],"period":2,"clock":-5,"state_mean":[1],"state_cov":{"rows":[[1]]}}`,
	}
	for name, in := range cases {
		if err := json.Unmarshal([]byte(in), new(LinearGaussian)); err == nil {
			t.Errorf("%s: expected load error", name)
		}
	}
}

// A negative clock would index the profile at a negative phase on the first
// read; the load refuses it and leaves its receiver as it was.
func TestLoadLinearGaussianRejectsNegativeClock(t *testing.T) {
	lg, err := FitLinearGaussian(garden2Cols(t, 100), FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	before := MeanOf(lg)
	in := `{"n":1,"a":{"rows":[[1]]},"q":{"rows":[[1]]},"profile":[[1],[2]],"period":2,"clock":-5,"state_mean":[1],"state_cov":{"rows":[[1]]}}`
	if err := json.Unmarshal([]byte(in), lg); err == nil {
		t.Fatal("a negative clock loaded")
	}
	if lg.Dim() != 2 || lg.Clock() != 99 || !sameBits(MeanOf(lg), before) {
		t.Fatalf("the refused load changed its receiver: dim %d, clock %d", lg.Dim(), lg.Clock())
	}
	ok := new(LinearGaussian)
	if err := json.Unmarshal([]byte(strings.Replace(in, "-5", "5", 1)), ok); err != nil {
		t.Fatal(err)
	}
	if got := MeanOf(ok); got[0] != 3 {
		t.Fatalf("clock 5 of period 2 reads phase %v, want the second profile row", got)
	}
}
