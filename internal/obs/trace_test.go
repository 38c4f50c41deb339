package obs_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"ken/internal/obs"
)

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	in := []obs.Event{
		{Type: obs.EvEpochStart, Step: 0, Clique: -1, Node: -1, Detail: "DjC2"},
		{Type: obs.EvReport, Step: 0, Clique: 1, Node: 3, Attrs: []int{2, 3}, Values: []float64{19.5, 20.25}},
		{Type: obs.EvSuppress, Step: 0, Clique: 0, Node: 0, Attrs: []int{0, 1}},
		{Type: obs.EvEpochEnd, Step: 0, Clique: -1, Node: -1, N: 2},
	}
	for _, e := range in {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Events(); got != int64(len(in)) {
		t.Fatalf("Events()=%d, want %d", got, len(in))
	}
	// One schema-header line precedes the events.
	if lines := strings.Count(buf.String(), "\n"); lines != len(in)+1 {
		t.Fatalf("wrote %d JSONL lines, want %d (events + header)", lines, len(in)+1)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"schema"`) {
		t.Fatalf("first line is not a schema header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}

	out, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Type != in[i].Type || out[i].Step != in[i].Step ||
			out[i].Clique != in[i].Clique || out[i].Node != in[i].Node ||
			out[i].N != in[i].N || out[i].Detail != in[i].Detail ||
			len(out[i].Attrs) != len(in[i].Attrs) || len(out[i].Values) != len(in[i].Values) {
			t.Errorf("event %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestTracerConcurrentEmit hammers one tracer core from several scoped
// views at once (run with -race): every JSONL line must stay intact — no
// interleaving, no truncation — and Events() must equal the decoded line
// count.
func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := (&obs.Observer{Trace: tr}).Scoped(strings.Repeat("w", w+1)).Tracer() // scoped views share the core
			for i := 0; i < perWorker; i++ {
				sp := view.StartEpoch(obs.Event{Step: int64(i), Clique: -1, Node: w})
				sp.EndEpoch(obs.Event{Step: int64(i), Clique: -1, Node: w})
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = workers * perWorker * 2 // epoch_start + epoch_end per iteration
	if got := tr.Events(); got != int64(want) {
		t.Fatalf("Events()=%d, want %d", got, want)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != want+1 {
		t.Fatalf("wrote %d JSONL lines, want %d (events + header)", lines, want+1)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != want {
		t.Fatalf("read %d events, want %d", len(events), want)
	}
	// Every event must carry its epoch linkage intact.
	for _, e := range events {
		if e.Epoch == 0 || e.Scope == "" {
			t.Fatalf("event lost span or scope under concurrency: %+v", e)
		}
	}
}

// TestReadEventsSchemaGate checks both sides of the version gate: a trace
// from an unknown schema is rejected with a clear error, and a headerless
// legacy trace is still accepted.
func TestReadEventsSchemaGate(t *testing.T) {
	_, err := obs.ReadEvents(strings.NewReader(`{"kind":"ken-trace","schema":99}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "schema 99") {
		t.Fatalf("unknown schema not rejected clearly: %v", err)
	}
	events, err := obs.ReadEvents(strings.NewReader(`{"type":"report","step":3,"clique":0,"node":1}` + "\n"))
	if err != nil {
		t.Fatalf("legacy headerless trace rejected: %v", err)
	}
	if len(events) != 1 || events[0].Type != obs.EvReport || events[0].Step != 3 {
		t.Fatalf("legacy trace misread: %+v", events)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink broken") }

// TestTracerStickyError checks that a broken sink reports its error on
// Flush and stops counting events instead of stalling the protocol.
func TestTracerStickyError(t *testing.T) {
	tr := obs.NewTracer(failWriter{})
	tr.Emit(obs.Event{Type: obs.EvResync, Clique: -1, Node: -1})
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush on broken sink returned nil")
	}
	before := tr.Events()
	tr.Emit(obs.Event{Type: obs.EvResync, Clique: -1, Node: -1})
	if got := tr.Events(); got != before {
		t.Fatalf("events counted after sticky error: %d -> %d", before, got)
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	_, err := obs.ReadEvents(strings.NewReader("{\"type\":\"report\"}\nnot json\n"))
	if err == nil {
		t.Fatal("ReadEvents accepted malformed JSONL")
	}
}
