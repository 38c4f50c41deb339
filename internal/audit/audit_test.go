package audit

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/simnet"
	"ken/internal/trace"
)

// labData returns (train, test, eps) for the first n Lab nodes.
func labData(t testing.TB, n, trainN, testN int) (train, test [][]float64, eps []float64) {
	t.Helper()
	tr, err := trace.GenerateLab(42, trainN+testN)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	all := make([][]float64, len(rows))
	for i, r := range rows {
		all[i] = r[:n]
	}
	eps = make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	return all[:trainN], all[trainN:], eps
}

func pairPartition(n int) *cliques.Partition {
	p, _ := cliques.Runs(n, 2, cliques.RootFirst) // pairs, then a singleton when n is odd
	return p
}

// runTraced builds a scheme against a fresh Observer (so scheme-side
// report/apply events share the run's trace), replays it, and returns the
// decoded events plus the Result the run itself produced.
func runTraced(t *testing.T, build func(ob *obs.Observer) (core.Scheme, error), test [][]float64, eps []float64, scope string) ([]obs.Event, *core.Result) {
	t.Helper()
	var buf bytes.Buffer
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
	s, err := build(ob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), s, test, core.RunOptions{Eps: eps, Observer: ob, Scope: scope})
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// buildKen returns a Ken builder over pair cliques.
func buildKen(train [][]float64, eps []float64, n int) func(ob *obs.Observer) (core.Scheme, error) {
	return func(ob *obs.Observer) (core.Scheme, error) {
		return core.NewKen(core.KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
			FitCfg: model.FitConfig{Period: 24}, Obs: ob})
	}
}

// TestAuditCleanKenRun is the happy path: a clean deterministic Ken replay
// audits green, and the report's totals agree with the run's own Result.
func TestAuditCleanKenRun(t *testing.T) {
	const n, trainN, testN = 6, 100, 150
	train, test, eps := labData(t, n, trainN, testN)
	events, res := runTraced(t, buildKen(train, eps, n), test, eps, "run")

	rep := Audit(events)
	if !rep.Clean() {
		t.Fatalf("clean run reported violations: %v", rep.Violations)
	}
	if rep.Epochs != testN {
		t.Fatalf("Epochs = %d, want %d", rep.Epochs, testN)
	}
	if rep.PayloadBytes != res.WireBytes {
		t.Fatalf("PayloadBytes = %d, want WireBytes %d", rep.PayloadBytes, res.WireBytes)
	}
	if rep.EpochValues.Count != int64(testN) {
		t.Fatalf("EpochValues.Count = %d, want %d", rep.EpochValues.Count, testN)
	}
	if rep.EpochLatency != nil {
		t.Fatal("latency histogram present without wall-clock stamps")
	}
	if len(rep.Scopes) != 1 || rep.Scopes[0].Scope != "run" || len(rep.Scopes[0].Segments) != 1 {
		t.Fatalf("unexpected scope layout: %+v", rep.Scopes)
	}
	seg := rep.Scopes[0].Segments[0]
	if seg.Declared == nil || seg.Declared.Values != res.ValuesReported || seg.Declared.Bytes != res.WireBytes {
		t.Fatalf("declared totals %+v do not match result %d values / %d bytes",
			seg.Declared, res.ValuesReported, res.WireBytes)
	}
	if seg.Scheme != res.Scheme {
		t.Fatalf("segment scheme %q, want %q", seg.Scheme, res.Scheme)
	}
}

// TestAuditLossyRunStaysConsistent checks the reconciliation rule: a lossy
// run legitimately misses ε, but because it declares those misses in
// run_end and its drops are on the record, the audit stays green.
func TestAuditLossyRunStaysConsistent(t *testing.T) {
	const n, trainN, testN = 6, 100, 200
	train, test, eps := labData(t, n, trainN, testN)
	events, res := runTraced(t, func(ob *obs.Observer) (core.Scheme, error) {
		return core.NewLossyKen(
			core.KenConfig{Partition: pairPartition(n), Train: train, Eps: eps,
				FitCfg: model.FitConfig{Period: 24}, Obs: ob},
			core.LossyConfig{LossRate: 0.3, HeartbeatEvery: 24, Seed: 9})
	}, test, eps, "lossy")

	rep := Audit(events)
	if !rep.Clean() {
		t.Fatalf("consistent lossy run reported violations: %v", rep.Violations)
	}
	seg := rep.Scopes[0].Segments[0]
	if res.BoundViolations == 0 || seg.EpsilonMiss != res.BoundViolations {
		t.Fatalf("audited %d ε misses, run declared %d (want equal and > 0)",
			seg.EpsilonMiss, res.BoundViolations)
	}
}

// TestAuditCatchesInjectedEpsilonMiss corrupts one epoch audit payload —
// the sink claims a value it could not have held — and expects the audit
// to fail naming the epoch, node and invariant.
func TestAuditCatchesInjectedEpsilonMiss(t *testing.T) {
	const n, trainN, testN = 6, 100, 150
	train, test, eps := labData(t, n, trainN, testN)
	events, _ := runTraced(t, buildKen(train, eps, n), test, eps, "run")

	const badEpoch, badNode = 40, 3
	tampered := 0
	for i := range events {
		if events[i].Type == obs.EvEpochEnd && events[i].Step == badEpoch && events[i].Payload != nil {
			events[i].Payload.Observed[badNode] += 100 // far outside ε = 0.5
			tampered++
		}
	}
	if tampered != 1 {
		t.Fatalf("tampered %d epoch_end events, want 1", tampered)
	}

	rep := Audit(events)
	if rep.Clean() {
		t.Fatal("audit passed a trace with an injected out-of-ε value")
	}
	v := rep.Violations[0]
	if v.Invariant != InvEpsilon || v.Epoch != badEpoch || v.Step != badEpoch || v.Node != badNode {
		t.Fatalf("violation %+v does not name invariant %s epoch %d node %d", v, InvEpsilon, badEpoch, badNode)
	}
}

// TestAuditCatchesTamperedRunTotals flips the run_end byte total and
// expects the byte-accounting invariant to fire.
func TestAuditCatchesTamperedRunTotals(t *testing.T) {
	const n, trainN, testN = 4, 100, 100
	train, test, eps := labData(t, n, trainN, testN)
	events, _ := runTraced(t, buildKen(train, eps, n), test, eps, "run")

	for i := range events {
		if events[i].Type == obs.EvRunEnd && events[i].Payload != nil {
			events[i].Payload.Bytes++
		}
	}
	rep := Audit(events)
	if rep.Clean() {
		t.Fatal("audit passed a trace whose run_end byte total was tampered")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == InvBytes && strings.Contains(v.Detail, "run_end declares") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no byte-accounting violation in %v", rep.Violations)
	}
}

// TestAuditCatchesSilentDivergence removes one sink_apply event — a value
// the source reported now reaches no replica and no drop explains it —
// and expects the divergence invariant to fire.
func TestAuditCatchesSilentDivergence(t *testing.T) {
	const n, trainN, testN = 6, 100, 150
	train, test, eps := labData(t, n, trainN, testN)
	events, _ := runTraced(t, buildKen(train, eps, n), test, eps, "run")

	cut := -1
	for i := range events {
		if events[i].Type == obs.EvApply && events[i].Parent != 0 {
			cut = i
		}
	}
	if cut < 0 {
		t.Fatal("trace has no span-linked sink_apply events")
	}
	removedStep := events[cut].Step
	events = append(events[:cut], events[cut+1:]...)

	rep := Audit(events)
	if rep.Clean() {
		t.Fatal("audit passed a trace with a silently un-applied report")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == InvDivergence && v.Step == removedStep {
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence violation at step %d in %v", removedStep, rep.Violations)
	}
}

// TestAuditApplyWatermarkRegression feeds a synthetic trace where a sink
// apply goes back in time for its clique.
func TestAuditApplyWatermarkRegression(t *testing.T) {
	events := []obs.Event{
		{Type: obs.EvApply, Step: 5, Clique: 0, Node: -1, Attrs: []int{0}, N: 1},
		{Type: obs.EvApply, Step: 3, Clique: 0, Node: -1, Attrs: []int{0}, N: 1},
	}
	rep := Audit(events)
	if len(rep.Violations) != 1 || rep.Violations[0].Invariant != InvDivergence {
		t.Fatalf("want one divergence violation, got %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Detail, "watermark") {
		t.Fatalf("violation does not name the watermark: %v", rep.Violations[0])
	}
}

// TestAuditReportOrderIgnoresArrival feeds every keyed table of the report
// its keys in descending order — scopes, nodes, cliques, links, the open
// epochs left at the segment's end and one report's unreported applied
// attributes — and requires each in ascending order, as the report's
// canonical order promises whatever order the trace arrived in.
func TestAuditReportOrderIgnoresArrival(t *testing.T) {
	var events []obs.Event
	for i, s := range []string{"s3", "s2"} {
		events = append(events, obs.Event{Type: obs.EvSuppress, Scope: s, Step: int64(i), Clique: -1, Node: -1})
	}
	// Three epochs that never end, their span ids descending. Each holds a
	// report of nothing that the sink applies anyway: divergence, emitted
	// in report order.
	applied := [][]int{{9, 8, 7}, {6}, {5}}
	for i, attrs := range applied {
		epoch := int64(30 - 10*i)
		clique, node := 5-i, 9-i
		events = append(events,
			obs.Event{Type: obs.EvEpochStart, Scope: "s1", Span: epoch, Step: int64(i), Clique: -1, Node: -1},
			obs.Event{Type: obs.EvReport, Scope: "s1", Span: epoch + 1, Parent: epoch, Epoch: epoch,
				Step: int64(i), Clique: clique, Node: node},
			obs.Event{Type: obs.EvApply, Scope: "s1", Span: epoch + 2, Parent: epoch + 1, Epoch: epoch,
				Step: int64(i), Clique: clique, Node: -1, Attrs: attrs},
			obs.Event{Type: obs.EvHop, Scope: "s1", Step: int64(i), Clique: -1, Node: node,
				Payload: &obs.Payload{From: node, To: node - 1, Bytes: 8}},
		)
	}
	rep := Audit(events)

	var scopes []string
	for _, s := range rep.Scopes {
		scopes = append(scopes, s.Scope)
	}
	var nodes, cliques []int
	for _, n := range rep.Nodes {
		nodes = append(nodes, n.Node)
	}
	for _, c := range rep.Cliques {
		cliques = append(cliques, c.Clique)
	}
	var links, details []string
	for _, l := range rep.Links {
		links = append(links, fmt.Sprintf("%d>%d", l.From, l.To))
	}
	for _, v := range rep.Violations {
		details = append(details, v.Detail)
	}
	for _, c := range []struct{ name, got, want string }{
		{"scopes", fmt.Sprint(scopes), "[s1 s2 s3]"},
		{"nodes", fmt.Sprint(nodes), "[6 7 8 9]"},
		{"cliques", fmt.Sprint(cliques), "[3 4 5]"},
		{"links", fmt.Sprint(links), "[7>6 8>7 9>8]"},
	} {
		if c.got != c.want {
			t.Errorf("%s in order %s, want %s", c.name, c.got, c.want)
		}
	}
	var want []string
	for _, a := range []int{7, 8, 9, 6, 5} {
		want = append(want, fmt.Sprintf("sink applied attribute %d that was never reported", a))
	}
	if !slices.Equal(details, want) {
		t.Errorf("violations in order\n %q\nwant\n %q", details, want)
	}
}

// gardenNet builds an 11-node garden network over a uniform topology.
func gardenNet(t *testing.T, radio simnet.Radio, seed int64) (*simnet.Network, [][]float64, [][]float64, []float64) {
	t.Helper()
	tr, err := trace.GenerateGarden(21, 300)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	top, err := network.Uniform(n, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(top, radio, seed)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	return net, rows[:100], rows[100:], eps
}

// runSimnetTraced drives a DistributedKen over the rows under a tracer.
func runSimnetTraced(t *testing.T, radio simnet.Radio, seed int64, epochs int) []obs.Event {
	t.Helper()
	net, train, test, eps := gardenNet(t, radio, seed)
	var buf bytes.Buffer
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
	net.Instrument(ob)
	prog, err := simnet.NewDistributedKenConfig(net, pairPartition(len(eps)), train, eps, model.FitConfig{Period: 24}, simnet.KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if epochs > len(test) {
		epochs = len(test)
	}
	for _, row := range test[:epochs] {
		if _, err := prog.Epoch(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestAuditSimnetRollupsAndEnergy audits a clean distributed Ken run and
// checks the per-node / per-link communication and energy rollups.
func TestAuditSimnetRollupsAndEnergy(t *testing.T) {
	events := runSimnetTraced(t, simnet.DefaultRadio(), 1, 60)
	rep := Audit(events)
	if !rep.Clean() {
		t.Fatalf("clean simnet run reported violations: %v", rep.Violations)
	}
	if len(rep.Nodes) == 0 || len(rep.Links) == 0 {
		t.Fatalf("missing rollups: %d nodes, %d links", len(rep.Nodes), len(rep.Links))
	}
	if rep.LinkBytes == 0 {
		t.Fatal("no link bytes accounted")
	}
	if rep.TotalEnergyJ <= 0 {
		t.Fatalf("TotalEnergyJ = %g, want > 0", rep.TotalEnergyJ)
	}
	var sum float64
	txBytes := 0
	for _, n := range rep.Nodes {
		sum += n.EnergyJ
		txBytes += n.TxBytes
	}
	if diff := sum - rep.TotalEnergyJ; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("per-node energy sums to %g, total says %g", sum, rep.TotalEnergyJ)
	}
	if txBytes != rep.LinkBytes {
		t.Fatalf("per-node tx bytes %d != link bytes %d", txBytes, rep.LinkBytes)
	}
}

// TestAuditSimnetLossExcusesMisses audits a lossy distributed run: ε
// misses happen, but every one is explained by an on-record drop, so the
// audit stays green while still counting the misses.
func TestAuditSimnetLossExcusesMisses(t *testing.T) {
	radio := simnet.DefaultRadio()
	radio.LossRate = 0.3
	events := runSimnetTraced(t, radio, 2, 120)
	rep := Audit(events)
	if !rep.Clean() {
		t.Fatalf("explained lossy run reported violations: %v", rep.Violations)
	}
	misses := 0
	for _, sr := range rep.Scopes {
		for _, seg := range sr.Segments {
			misses += seg.EpsilonMiss
		}
	}
	if misses == 0 {
		t.Fatal("expected ε misses under 30% loss (test would not exercise the excuse path)")
	}
}

// TestAuditScopeInterleavingInvariance simulates a parallel trace: the
// same two runs, written scope-after-scope versus interleaved event by
// event, must audit to byte-identical JSON and markdown reports.
func TestAuditScopeInterleavingInvariance(t *testing.T) {
	const n, trainN, testN = 4, 100, 80
	train, test, eps := labData(t, n, trainN, testN)

	var buf bytes.Buffer
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
	for _, scope := range []string{"bench/0", "bench/1"} {
		s, err := buildKen(train, eps, n)(ob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(context.Background(), s, test, core.RunOptions{Eps: eps, Observer: ob, Scope: scope}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ob.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	sequential, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Interleave the two scopes' events while preserving per-scope order —
	// exactly what concurrent cells sharing one trace file produce.
	var a, b, interleaved []obs.Event
	for _, e := range sequential {
		if e.Scope == "bench/0" {
			a = append(a, e)
		} else {
			b = append(b, e)
		}
	}
	for len(a) > 0 || len(b) > 0 {
		if len(a) > 0 {
			interleaved = append(interleaved, a[0])
			a = a[1:]
		}
		if len(b) > 0 {
			interleaved = append(interleaved, b[0])
			b = b[1:]
		}
	}

	render := func(events []obs.Event) (string, string) {
		rep := Audit(events)
		var j, m bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteMarkdown(&m); err != nil {
			t.Fatal(err)
		}
		return j.String(), m.String()
	}
	j1, m1 := render(sequential)
	j2, m2 := render(interleaved)
	if j1 != j2 {
		t.Fatal("JSON report differs between sequential and interleaved event order")
	}
	if m1 != m2 {
		t.Fatal("markdown report differs between sequential and interleaved event order")
	}
	if !strings.Contains(m1, "PASS") {
		t.Fatalf("markdown does not carry the verdict:\n%s", m1)
	}
}

// TestAuditTraceRejectsUnknownSchema keeps the version gate: a trace from
// a future build must be rejected, not misread.
func TestAuditTraceRejectsUnknownSchema(t *testing.T) {
	in := strings.NewReader(`{"kind":"ken-trace","schema":99}` + "\n")
	if _, err := AuditTrace(in); err == nil {
		t.Fatal("AuditTrace accepted an unknown schema version")
	}
}
