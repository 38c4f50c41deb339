package stream

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/trace"
)

// chainConfig builds an endpoint config over a generated deployment with
// consecutive cliques of at most k and ε = 0.5 everywhere, and its test rows.
func chainConfig(t *testing.T, gen func(int64, int) (*trace.Trace, error), seed int64, k, steps int) (Config, [][]float64) {
	t.Helper()
	tr, err := gen(seed, 100+steps)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	p, _ := cliques.Runs(n, k, cliques.RootFirst)
	return Config{Partition: p, Train: rows[:100], Eps: eps, FitCfg: model.FitConfig{Period: 24}}, rows[100:]
}

// TestEndToEndEpsAtTheWireQuantum: through the real encoding, the sink's
// answer stays within ε of truth at every epoch on both deployments and at
// every clique size the benchmark uses. The source gives up quantum/2 of ε
// for the rounding of the values it reports; the unreported attributes of a
// clique move by the conditioning gain times that rounding, which nothing
// bounds in general (EXPERIMENTS.md "Known deviations": quanta of 1.5 ε and
// more overshoot) — this pins that at the fixed quantum, min ε / 100, the
// shift stays inside the margin.
func TestEndToEndEpsAtTheWireQuantum(t *testing.T) {
	for name, gen := range map[string]func(int64, int) (*trace.Trace, error){"garden": trace.GenerateGarden, "lab": trace.GenerateLab} {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s k=%d", name, k), func(t *testing.T) {
				cfg, test := chainConfig(t, gen, 7, k, 1000)
				src, err := NewSource(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sink, err := NewReplica(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := 0.5 / 100; src.Resolution() != want || sink.Resolution() != want {
					t.Fatalf("quantum %v at the source, %v at the sink, want %v", src.Resolution(), sink.Resolution(), want)
				}
				var pipe bytes.Buffer
				var body []byte
				for step, row := range test {
					f, err := src.Collect(row)
					if err != nil {
						t.Fatal(err)
					}
					if err := WriteFrame(&pipe, f, src.Resolution()); err != nil {
						t.Fatal(err)
					}
					if f, body, err = ReadFrameBuf(&pipe, sink.Resolution(), body); err != nil {
						t.Fatal(err)
					}
					if err := sink.Apply(f); err != nil {
						t.Fatal(err)
					}
					for i, est := range sink.Answer().Estimates {
						if d := math.Abs(est - row[i]); d > cfg.Eps[i] {
							t.Fatalf("step %d attribute %d: |estimate − truth| = %v exceeds ε %v", step, i, d, cfg.Eps[i])
						}
					}
				}
			})
		}
	}
}

// TestSourceTraceVocabulary: a traced Source speaks the loop's vocabulary —
// per clique a report (with the clique and its root named) and a suppress
// beside it, a resync on heartbeat epochs, every event carrying its epoch's
// step — and the reports account for exactly the values the frames carry.
// A Replica fed the same frames speaks the sink half of it: per clique with a
// non-empty share of a frame an apply of exactly that share, a resync per
// heartbeat frame, nothing nested under a report traced in another process —
// and tracing leaves its beliefs bitwise an untraced replica's.
func TestSourceTraceVocabulary(t *testing.T) {
	cfg, test := chainConfig(t, trace.GenerateGarden, 7, 2, 60)
	cfg.HeartbeatEvery = 10
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf, sinkBuf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	src.Instrument(&obs.Observer{Trace: tracer})
	traced, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sinkTracer := obs.NewTracer(&sinkBuf)
	traced.loop.Tracer = sinkTracer
	var shares []obs.Event // the applies the frames call for, in order
	sent, heartbeats := 0, 0
	for _, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		sent += len(f.Attrs)
		if f.Special != 0 {
			heartbeats++
		}
		for ci := range cfg.Partition.Cliques {
			share := obs.Event{Step: int64(f.Step), Clique: ci}
			for j, a := range f.Attrs {
				if traced.route[a].clique == ci {
					share.Attrs, share.Values = append(share.Attrs, a), append(share.Values, f.Values[j])
				}
			}
			if len(share.Attrs) > 0 {
				shares = append(shares, share)
			}
		}
		if err := traced.Apply(f); err != nil {
			t.Fatal(err)
		}
		if err := untraced.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(beliefBits(t, traced), beliefBits(t, untraced)) {
		t.Fatal("tracing moved the replica's beliefs")
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sinkTracer.Flush(); err != nil {
		t.Fatal(err)
	}
	sinkEvents, err := obs.ReadEvents(&sinkBuf)
	if err != nil {
		t.Fatal(err)
	}
	applied, sinkResyncs := 0, 0
	for _, e := range sinkEvents {
		if e.Parent != 0 || e.Epoch != 0 {
			t.Fatalf("replica %s at step %d nested under span %d of epoch %d", e.Type, e.Step, e.Parent, e.Epoch)
		}
		switch e.Type {
		case obs.EvResync:
			sinkResyncs++
		case obs.EvApply:
			if applied == len(shares) {
				t.Fatalf("more applies than non-empty shares (%d)", len(shares))
			}
			want := shares[applied]
			if e.Step != want.Step || e.Clique != want.Clique || e.N != len(want.Attrs) ||
				!reflect.DeepEqual(e.Attrs, want.Attrs) || !bitsEqual(e.Values, want.Values) {
				t.Fatalf("apply %d: step %d clique %d attrs %v values %v, want step %d clique %d attrs %v values %v",
					applied, e.Step, e.Clique, e.Attrs, e.Values, want.Step, want.Clique, want.Attrs, want.Values)
			}
			applied++
		default:
			t.Fatalf("a sink-only loop emitted %s", e.Type)
		}
	}
	if applied != len(shares) || sinkResyncs != heartbeats {
		t.Fatalf("the replica applied %d of %d shares and resynced %d times for %d heartbeat frames",
			applied, len(shares), sinkResyncs, heartbeats)
	}
	t.Logf("%d values sent and applied in %d shares, %d resyncs", sent, applied, sinkResyncs)
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	epochStep := map[int64]int64{}
	reported, suppressed, resyncs, ended := 0, 0, 0, 0
	for _, e := range events {
		switch e.Type {
		case obs.EvEpochStart:
			epochStep[e.Span] = e.Step
			continue
		case obs.EvEpochEnd:
			ended += e.N
		case obs.EvReport, obs.EvSuppress:
			if e.Clique < 0 || e.Node != cfg.Partition.Cliques[e.Clique].Root {
				t.Fatalf("%s names clique %d at node %d", e.Type, e.Clique, e.Node)
			}
			if e.Type == obs.EvReport {
				reported += len(e.Attrs)
			} else {
				suppressed += len(e.Attrs)
			}
		case obs.EvResync:
			resyncs++
		default:
			t.Fatalf("a source-only loop emitted %s", e.Type)
		}
		if start, ok := epochStep[e.Epoch]; !ok || e.Step != start {
			t.Fatalf("%s at step %d inside the epoch that started at step %d", e.Type, e.Step, start)
		}
	}
	if reported != sent || ended != sent || reported+suppressed != len(test)*len(cfg.Eps) {
		t.Fatalf("frames carry %d values; the trace reports %d, closes epochs on %d and suppresses %d of %d readings",
			sent, reported, ended, suppressed, len(test)*len(cfg.Eps))
	}
	if resyncs != heartbeats || heartbeats != len(test)/10 {
		t.Fatalf("%d resyncs for %d heartbeat frames in %d epochs", resyncs, heartbeats, len(test))
	}
}
