package oracle

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"testing"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/mat"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/protocol"
	"ken/internal/simnet"
	"ken/internal/stream"
	"ken/internal/trace"
	"ken/internal/wire"
)

// TestStreamBitsPinned pins the bits of the stream path and of core.Run
// across commits. The sweep above compares deliveries built from the same
// code, and the figure hash covers rounded tables, so neither notices a
// kernel change that moves every replica alike. Lab seed 1, 2 000 test
// steps, heartbeat 24, cliques.Runs(49, k, RootFirst): Source.Collect →
// AppendEncode → DecodeInto → Replica.ApplyObserved, then core.Run on the
// same partition. One FNV-64a digest covers every encoded frame, the
// replica's final answer and every core.Run estimate. A change that means
// to move these bits says so and re-pins; one that claims the same bits
// must pass unchanged. Like the figure hash, it is pinned on amd64.
func TestStreamBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse or round differently", runtime.GOARCH)
	}
	exp := must(trace.LoadExperiment("lab", 1, 100, 2000, 0))
	for _, tc := range []struct {
		k    int
		want uint64
	}{
		{1, 0xe98205b26b2cf009},
		{2, 0xaa0d6370f23acfc2},
		{8, 0x0083d1addecc72c6},
	} {
		t.Run(fmt.Sprint("k=", tc.k), func(t *testing.T) {
			t.Parallel()
			part := must(cliques.Runs(len(exp.Eps), tc.k, cliques.RootFirst))
			cfg := stream.Config{Partition: part, Train: exp.Train, Eps: exp.Eps, FitCfg: fitCfg, HeartbeatEvery: 24}
			src, rep := must(stream.NewSource(cfg)), must(stream.NewReplica(cfg))
			h := fnv.New64a()
			var buf []byte
			var frame wire.Frame
			reported := 0
			for e, truth := range exp.Test {
				sent, err := src.Collect(truth)
				if err == nil {
					buf, err = wire.AppendEncode(buf[:0], sent, src.Resolution())
				}
				if err == nil {
					err = wire.DecodeInto(&frame, buf, src.Resolution())
				}
				if err == nil {
					err = rep.ApplyObserved(frame, nil)
				}
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				h.Write(buf)
				if sent.Special != wire.KindHeartbeat {
					reported += len(sent.Attrs)
				}
			}
			if reported == 0 {
				t.Fatal("nothing reported between heartbeats: the search was never exercised")
			}
			writeBits(h, rep.Answer().Estimates)
			s := must(core.Build(core.SchemeSpec{Scheme: fmt.Sprint("DjC", tc.k), Eps: exp.Eps, Train: exp.Train, FitCfg: fitCfg, Partition: part}))
			must(core.Run(context.Background(), hashing{s, h}, exp.Test, core.RunOptions{Eps: exp.Eps}))
			if got := h.Sum64(); got != tc.want {
				t.Errorf("digest %#016x, pinned %#016x", got, tc.want)
			}
		})
	}
}

// TestSearchBitsPinned pins the bits of every answer the report search's
// evaluator gives. A frame records only which way each ε comparison went,
// so an ulp moved in a hypothesised mean passes TestStreamBitsPinned unless
// it flips a pick; this digest sees the ulp. Lab seed 1, 2 000 test steps,
// cliques.Runs(49, k, RootFirst), one lone replica per clique stepped by
// protocol.Kernel.Advance: every CondMeanInto answer's bits and every
// evaluator error string go into one FNV-64a, with each epoch's report
// size. k = 3 makes the search cross from two held attributes to three.
// Pinned on amd64, like its sibling.
func TestSearchBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse or round differently", runtime.GOARCH)
	}
	exp := must(trace.LoadExperiment("lab", 1, 100, 2000, 0))
	for _, tc := range []struct {
		k    int
		want uint64
	}{
		{2, 0xc107eead519708ae},
		{3, 0x80c77d2193ee257d},
		{8, 0x58b14157dc4511dd},
	} {
		t.Run(fmt.Sprint("k=", tc.k), func(t *testing.T) {
			t.Parallel()
			part := must(cliques.Runs(len(exp.Eps), tc.k, cliques.RootFirst))
			h := fnv.New64a()
			kernels := make([]*protocol.Kernel, len(part.Cliques))
			for ci, c := range part.Cliques {
				lg := must(model.FitColumns(exp.Train, c.Members, fitCfg))
				kernels[ci] = must(protocol.New(hashingModel{lg, h}, c.Members, mat.Select(exp.Eps, c.Members)))
			}
			reported := 0
			var b [8]byte
			for _, truth := range exp.Test {
				for _, k := range kernels {
					// A failed search is part of the pin: its error string
					// is in the digest, and the epoch reports nothing.
					n, err := k.Advance(truth)
					if err != nil {
						io.WriteString(h, err.Error())
					}
					binary.LittleEndian.PutUint64(b[:], uint64(n))
					h.Write(b[:])
					reported += n
				}
			}
			if reported == 0 {
				t.Fatal("nothing reported: the search was never exercised")
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("digest %#016x, pinned %#016x", got, tc.want)
			}
		})
	}
}

// TestAverageBitsPinned pins the bits of the Average model (Example 3.5) on
// both of its drivers, which the figure hash sees only rounded and the
// kennet golden only as totals. Lab seed 1, 2 000 test steps: every
// estimate core.Run gets from the avg scheme, then every EpochResult of a
// simnet avg replay on the chain at 20 % per-hop loss, whose batteries run
// out partway — orphans condition on a stale average, reports are lost and
// dead nodes fall silent. One FNV-64a digest each. Pinned on amd64, like
// its siblings.
func TestAverageBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse or round differently", runtime.GOARCH)
	}
	exp := must(trace.LoadExperiment("lab", 1, 100, 2000, 0))
	n := len(exp.Eps)
	t.Run("core", func(t *testing.T) {
		t.Parallel()
		h := fnv.New64a()
		s := must(core.Build(core.SchemeSpec{Scheme: "avg", Eps: exp.Eps, Train: exp.Train, FitCfg: fitCfg}))
		res := must(core.Run(context.Background(), hashing{s, h}, exp.Test, core.RunOptions{Eps: exp.Eps}))
		if res.ValuesReported == 0 || res.ValuesReported == res.Steps*n {
			t.Fatalf("%d of %d values reported: the search was not exercised both ways", res.ValuesReported, res.Steps*n)
		}
		if got, want := h.Sum64(), uint64(0x6205d7867020919b); got != want {
			t.Errorf("digest %#016x, pinned %#016x", got, want)
		}
	})
	t.Run("simnet", func(t *testing.T) {
		t.Parallel()
		radio := simnet.DefaultRadio()
		radio.LossRate = 0.2
		radio.BatteryJ = 1
		net := must(simnet.New(must(network.Chain(n)), radio, 1))
		prog := must(simnet.NewDistributedAverage(net, exp.Train, exp.Eps, fitCfg))
		h := fnv.New64a()
		var b [8]byte
		delivered, violations := 0, 0
		for e, truth := range exp.Test {
			res, err := prog.Epoch(truth)
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			writeBits(h, res.Estimates)
			binary.LittleEndian.PutUint64(b[:], uint64(res.ValuesDelivered))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], uint64(res.Violations))
			h.Write(b[:])
			delivered += res.ValuesDelivered
			violations += res.Violations
		}
		st := net.Stats()
		if delivered == 0 || violations == 0 || st.DroppedLoss == 0 || net.AliveCount() == n || net.AliveCount() == 0 {
			t.Fatalf("%d delivered, %d violations, %d lost, %d of %d alive: the replay misses a failure mode",
				delivered, violations, st.DroppedLoss, net.AliveCount(), n)
		}
		if got, want := h.Sum64(), uint64(0xdf99d5ba6c10de98); got != want {
			t.Errorf("digest %#016x, pinned %#016x", got, want)
		}
	})
}

// hashingModel is a LinearGaussian whose evaluator feeds every answer's
// bits and every error string to h.
type hashingModel struct {
	*model.LinearGaussian
	h hash.Hash
}

func (m hashingModel) CondReset() error { return m.sum(m.LinearGaussian.CondReset()) }

func (m hashingModel) CondAdd(i int, v float64) error {
	return m.sum(m.LinearGaussian.CondAdd(i, v))
}

func (m hashingModel) CondMeanInto(dst []float64) error {
	err := m.LinearGaussian.CondMeanInto(dst)
	if err == nil {
		writeBits(m.h, dst)
	}
	return m.sum(err)
}

func (m hashingModel) sum(err error) error {
	if err != nil {
		io.WriteString(m.h, err.Error())
	}
	return err
}

// writeBits feeds the bits of vs to h, little-endian.
// hashing is a Scheme that writes every estimate it hands back into h, in
// step order: core.Run keeps totals only, and an estimate is a view that
// the next step overwrites.
type hashing struct {
	core.Scheme
	h hash.Hash
}

func (s hashing) Step(truth []float64) ([]float64, core.StepStats, error) {
	est, st, err := s.Scheme.Step(truth)
	if err == nil {
		writeBits(s.h, est)
	}
	return est, st, err
}

func writeBits(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
