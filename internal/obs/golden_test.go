package obs_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ken/internal/obs"
)

// TestFlatTraceGolden pins the bytes a flat trace holds: the schema header,
// then one JSON line per event with scopes, span ids, parent links and
// payload numbers exactly as kenaudit reads them. testdata/tracer.golden
// was recorded before the flat file became one more LineSink; any drift in
// the encoding (field order, HTML escaping, float format, newlines) fails
// here.
func TestFlatTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	root := obs.NewTracer(&buf)
	ob := &obs.Observer{Trace: root}
	cell := ob.Scoped("fig9").Scoped("3").Tracer()
	other := ob.Scoped("sim/net").Tracer()

	ep := cell.StartEpoch(obs.Event{Step: 7, Clique: -1, Node: -1, Detail: "DjC2"})
	rep := ep.Child()
	rep.Emit(obs.Event{Type: obs.EvReport, Step: 7, Clique: 1, Node: 3,
		Attrs: []int{2, 3}, Values: []float64{19.5, 0.1},
		Payload: &obs.Payload{Predicted: []float64{19.25, 1e21}, Observed: []float64{19.5, 1e-7},
			Eps: []float64{0.5, 0.5}, Bytes: 8}})
	ep.Emit(obs.Event{Type: obs.EvSuppress, Step: 7, Clique: 0, Node: 0, Attrs: []int{0, 1}})
	apply := rep.Child()
	apply.Emit(obs.Event{Type: obs.EvApply, Step: 7, Clique: 1, Node: -1, N: 2})
	hop := other.StartEpoch(obs.Event{Step: 8, Clique: -1, Node: -1})
	hop.Child().Emit(obs.Event{Type: obs.EvDrop, Step: 8, Clique: -1, Node: 4,
		Detail: "<loss & \"dead\">", Values: []float64{math.Copysign(0, -1), -2.5e-9}})
	hop.Emit(obs.Event{Type: obs.EvHop, Step: 8, Clique: -1, Node: 4, Scope: "explicit",
		Payload: &obs.Payload{From: 4, To: 0, Bytes: 12}})
	hop.EndEpoch(obs.Event{Step: 8, Clique: -1, Node: -1,
		Payload: &obs.Payload{Retx: 1, LinkBytes: 24}})
	ep.EndEpoch(obs.Event{Step: 7, Clique: -1, Node: -1, N: 2,
		Payload: &obs.Payload{Predicted: []float64{19.25}, Observed: []float64{19.5}, Eps: []float64{0.5}, Bytes: 8}})
	root.Emit(obs.Event{Type: obs.EvRunEnd, Step: 8, Clique: -1, Node: -1,
		Payload: &obs.Payload{Steps: 2, Values: 2, Violations: 0, Bytes: 8}})
	if err := root.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := root.Events(); got != 10 {
		t.Fatalf("Events() = %d, want 10", got)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tracer.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flat trace bytes drifted from testdata/tracer.golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
