package protocol

import (
	"math"
	"testing"

	"ken/internal/model"
	"ken/internal/obs"
)

// blackout is a fault-injecting channel: it drops every report whole for
// `every`−1 epochs, calls a heartbeat on the next and lets that one through.
// dropped[ci] says whether clique ci has lost a non-empty report since the
// last heartbeat.
type blackout struct {
	every, epoch int
	heartbeat    bool
	dropped      []bool
	drops        int
}

func (b *blackout) Heartbeat() bool {
	b.epoch++
	b.heartbeat = b.epoch%b.every == 0
	return b.heartbeat
}

func (b *blackout) Collect(int, []float64) []int { return nil }

func (b *blackout) Carry(ci int, idx []int, vals []float64, _ *obs.Span) ([]int, []float64, []int) {
	if b.heartbeat {
		b.dropped[ci] = false
		return idx, vals, nil
	}
	if len(idx) > 0 {
		b.dropped[ci] = true
		b.drops++
	}
	return nil, nil, nil
}

// gardenLoop fits pairs of garden attributes and returns a two-sided loop
// over ch with the test rows and the shared bound.
func gardenLoop(t *testing.T, n int, ch Channel) (*Loop, [][]float64, float64) {
	t.Helper()
	const eps = 0.5
	data := gardenCols(t, 400, n)
	l := &Loop{N: n, Channel: ch, Choose: (*Kernel).Choose}
	for lo := 0; lo < n; lo += 2 {
		k, err := Fit(data[:100], uniform(n, eps), []int{lo, lo + 1}, func(cols [][]float64) (model.Model, error) {
			return model.FitLinearGaussian(cols, model.FitConfig{Period: 24})
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Src, l.Roots = append(l.Src, k), append(l.Roots, lo)
	}
	l.Sink = Mirror(l.Src)
	return l, data[100:], eps
}

// TestLoopFaultInjection drives the loop through the blackout channel — the
// fault injection written once, against the loop instead of against each
// transport. The §6 claims hold at the replica level: right after a
// heartbeat every clique's source and sink replicas are bitwise equal, and
// between heartbeats the sink misses ε only in cliques that lost a report —
// a clique whose reports were all empty stays exact through the blackout.
func TestLoopFaultInjection(t *testing.T) {
	const n = 6
	ch := &blackout{every: 7, dropped: make([]bool, n/2)}
	l, test, eps := gardenLoop(t, n, ch)
	est := make([]float64, n)
	misses, diverged := 0, false
	for step, truth := range test {
		if err := l.Check(truth); err != nil {
			t.Fatal(err)
		}
		if err := l.Epoch(int64(step), nil, truth); err != nil {
			t.Fatal(err)
		}
		l.Estimates(est)
		for ci, src := range l.Src {
			same := true
			for i, v := range src.Mean() {
				same = same && math.Float64bits(v) == math.Float64bits(l.Sink[ci].Mean()[i])
			}
			if ch.heartbeat && !same {
				t.Fatalf("step %d clique %d: replicas differ right after a heartbeat", step, ci)
			}
			diverged = diverged || !same
			for _, g := range src.Members() {
				if math.Abs(est[g]-truth[g]) <= eps+1e-9 {
					continue
				}
				misses++
				if !ch.dropped[ci] {
					t.Fatalf("step %d: attribute %d misses ε in clique %d, which lost no report", step, g, ci)
				}
			}
		}
	}
	if ch.drops == 0 || misses == 0 || !diverged {
		t.Fatalf("%d reports dropped, %d ε misses, diverged %v: the blackout was never felt", ch.drops, misses, diverged)
	}
}
