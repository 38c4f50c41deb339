package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"ken/internal/model"
	"ken/internal/obs"
)

// TestFailureDetectorThresholdTable pins SilenceThreshold against the
// first silence length that actually trips Observe, for ratios
// log(alpha)/log1p(-rate) that are integral and ones that are not.
// Suspect uses a strict inequality, so an integral ratio r must yield
// threshold r+1 — the case the old Ceil formula undercounted by one.
func TestFailureDetectorThresholdTable(t *testing.T) {
	cases := []struct {
		rate, alpha float64
		want        int
	}{
		// Inexact ratios: Floor+1 agrees with the old Ceil.
		{0.4, 0.01, 10}, // ratio ≈ 9.015
		{0.2, 0.05, 14}, // ratio ≈ 13.425
		// Exact ratios: alpha = (1−rate)^k, so ratio is exactly k and the
		// first improbable-enough silence is k+1 (Ceil gave k, one early).
		{0.5, 0.5, 2},   // ratio = 1
		{0.5, 0.25, 3},  // ratio = 2
		{0.9, 0.01, 3},  // ratio = 2 (0.01 = 0.1²)
		{0.75, 0.25, 2}, // ratio = 1
	}
	for _, c := range cases {
		d, err := NewFailureDetector(c.rate, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		th := d.SilenceThreshold()
		if th != c.want {
			t.Errorf("rate %v alpha %v: threshold = %d, want %d", c.rate, c.alpha, th, c.want)
		}
		// The declared threshold must be exactly the first silence length
		// Observe flags, whatever the float details of the ratio.
		first := 0
		for s := 1; s <= th+1; s++ {
			if d.Observe(false) {
				first = s
				break
			}
		}
		if first != th {
			t.Errorf("rate %v alpha %v: first suspicion at silence %d, threshold says %d",
				c.rate, c.alpha, first, th)
		}
	}
}

// TestLossyKenHeartbeatTiming checks the heartbeat schedule: the first
// heartbeat fires at step HeartbeatEvery exactly — not at step 0 (which
// would waste a full-value transmission on the first epoch) — and then
// every HeartbeatEvery steps.
func TestLossyKenHeartbeatTiming(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 12)
	lk, err := NewLossyKen(KenConfig{
		Partition: runs(4, 2), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	}, LossyConfig{HeartbeatEvery: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	beats := 0
	for i, row := range test {
		if _, _, err := lk.Step(row); err != nil {
			t.Fatal(err)
		}
		if lk.loop.Heartbeat {
			beats++
		}
		step := i + 1
		want := step / 5 // 0 through step 4, 1 through step 9, ...
		if beats != want {
			t.Fatalf("after step %d: %d heartbeats, want %d", step, beats, want)
		}
	}
}

// TestLossyKenHeartbeatResyncsReplicas drives LossyKen under heavy loss
// and checks the §6 healing claim at the replica level: immediately after
// a heartbeat step the source and sink models are bitwise identical,
// while loss makes them diverge on at least some non-heartbeat steps.
func TestLossyKenHeartbeatResyncsReplicas(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 60)
	lk, err := NewLossyKen(KenConfig{
		Partition: runs(4, 2), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	}, LossyConfig{LossRate: 0.5, HeartbeatEvery: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	identical := func() bool {
		for ci := range lk.loop.Src {
			src, sink := lk.loop.Src[ci].Mean(), lk.loop.Sink[ci].Mean()
			for i := range src {
				if math.Float64bits(src[i]) != math.Float64bits(sink[i]) {
					return false
				}
			}
		}
		return true
	}
	diverged, beats := false, 0
	for i, row := range test {
		if _, _, err := lk.Step(row); err != nil {
			t.Fatal(err)
		}
		if lk.loop.Heartbeat {
			beats++
		}
		if (i+1)%5 == 0 {
			if !identical() {
				t.Fatalf("replicas differ right after the heartbeat at step %d", i+1)
			}
		} else if !identical() {
			diverged = true
		}
	}
	if beats == 0 {
		t.Fatal("no heartbeats issued")
	}
	if !diverged {
		t.Fatal("50% loss never desynchronised the replicas; the resync check is vacuous")
	}
}

// TestLossyKenCountersMatchTrace replays a traced lossy run and checks
// the scheme's counters against the protocol trace: ken_lost_reports_total
// equals the values carried by EvDrop("loss") events, ken_heartbeats_total
// equals the EvResync count — and every resync carries the step of the
// epoch it is emitted in, like the epoch's other events (it used to carry
// the heartbeat schedule's one-based count, one past its epoch_start).
func TestLossyKenCountersMatchTrace(t *testing.T) {
	train, test, eps := gardenData(t, 4, 100, 80)
	var buf bytes.Buffer
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
	lk, err := NewLossyKen(KenConfig{
		Partition: runs(4, 2), Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24}, Obs: ob,
	}, LossyConfig{LossRate: 0.3, HeartbeatEvery: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), lk, test, RunOptions{Eps: eps, Observer: ob}); err != nil {
		t.Fatal(err)
	}
	if err := ob.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lostValues, resyncs := 0, 0
	epochStep := map[int64]int64{}
	for _, e := range events {
		switch e.Type {
		case obs.EvEpochStart:
			epochStep[e.Span] = e.Step
		case obs.EvDrop:
			if e.Detail == "loss" {
				lostValues += len(e.Attrs)
			}
		case obs.EvResync:
			resyncs++
			if start, ok := epochStep[e.Epoch]; !ok || e.Step != start {
				t.Fatalf("resync at step %d inside the epoch that started at step %d", e.Step, start)
			}
		}
	}
	lost := int(ob.Reg.Counter("ken_lost_reports_total").Value())
	beats := int(ob.Reg.Counter("ken_heartbeats_total").Value())
	if lost == 0 {
		t.Fatal("loss injector dropped nothing")
	}
	if lostValues != lost {
		t.Fatalf("trace carries %d lost values, scheme counted %d", lostValues, lost)
	}
	if resyncs != beats {
		t.Fatalf("trace carries %d resyncs, scheme counted %d", resyncs, beats)
	}
}
