package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ken/internal/obs"
	"ken/internal/tracestore"
)

// runKenaudit drives the CLI exactly as main does, capturing the streams.
func runKenaudit(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeCleanStore emits `epochs` one-report epochs (steps 0..epochs-1)
// through the real tracer into a segmented store and returns its path.
func writeCleanStore(t *testing.T, epochs, segEvents int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := tracestore.Create(dir, tracestore.Options{MaxEvents: segEvents})
	if err != nil {
		t.Fatal(err)
	}
	tr := (&obs.Observer{Trace: obs.NewTracerSink(w)}).Scoped("sim/net").Tracer()
	for i := 0; i < epochs; i++ {
		step := int64(i)
		sp := tr.StartEpoch(obs.Event{Step: step, Clique: 0, Node: -1})
		sp.Emit(obs.Event{Type: obs.EvReport, Step: step, Clique: 0, Node: 1, Attrs: []int{0}, Values: []float64{1}})
		sp.EndEpoch(obs.Event{Step: step, Clique: 0, Node: -1, N: 1})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestEmptyTraceReportsNoEventsExitZero(t *testing.T) {
	path := writeFile(t, "empty.jsonl", "")
	code, _, stderr := runKenaudit(t, "", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d on empty trace, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "no events in trace") {
		t.Fatalf("stderr %q does not report the empty trace", stderr)
	}
}

func TestHeaderOnlyTraceReportsNoEventsExitZero(t *testing.T) {
	path := writeFile(t, "hdr.jsonl", `{"kind":"ken-trace","schema":2}`+"\n")
	code, stdout, stderr := runKenaudit(t, "", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d on header-only trace, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "no events in trace") {
		t.Fatalf("stderr %q does not report the empty trace", stderr)
	}
	if strings.Contains(stdout, "# Ken") {
		t.Fatalf("markdown report rendered for an empty trace:\n%s", stdout)
	}
}

func TestTruncatedMidLineTraceFails(t *testing.T) {
	path := writeFile(t, "trunc.jsonl",
		`{"kind":"ken-trace","schema":2}`+"\n"+`{"type":"report","scope":"s","st`)
	code, _, stderr := runKenaudit(t, "", "-trace", path)
	if code != 2 {
		t.Fatalf("exit %d on truncated trace, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "reading trace event") {
		t.Fatalf("stderr %q does not name the decode failure", stderr)
	}
}

func TestUnknownSchemaFails(t *testing.T) {
	path := writeFile(t, "v99.jsonl", `{"kind":"ken-trace","schema":99}`+"\n")
	code, _, stderr := runKenaudit(t, "", "-trace", path)
	if code != 2 {
		t.Fatalf("exit %d on unknown schema, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "schema") {
		t.Fatalf("stderr %q does not mention the schema", stderr)
	}
}

func TestStdinTrace(t *testing.T) {
	trace := `{"kind":"ken-trace","schema":2}` + "\n" +
		`{"type":"report","scope":"s","step":1,"clique":-1,"node":1}` + "\n"
	code, stdout, stderr := runKenaudit(t, trace, "-trace", "-")
	if code != 0 {
		t.Fatalf("exit %d on stdin trace, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "events") {
		t.Fatalf("no markdown summary on stdout:\n%s", stdout)
	}
}

func TestVerifyChainCleanStore(t *testing.T) {
	dir := writeCleanStore(t, 10, 8)
	code, _, stderr := runKenaudit(t, "", "-trace", dir, "-verify-chain", "-q")
	if code != 0 {
		t.Fatalf("exit %d on clean store, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "chain OK") {
		t.Fatalf("stderr %q does not confirm the chain", stderr)
	}
}

func TestVerifyChainCorruptionExitsOneNamingSegment(t *testing.T) {
	dir := writeCleanStore(t, 10, 8)
	seg := tracestore.SegmentPath(dir, 0)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[bytes.IndexByte(raw, '\n')+5] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runKenaudit(t, "", "-trace", dir, "-verify-chain", "-q")
	if code != 1 {
		t.Fatalf("exit %d on corrupted store, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, filepath.Base(seg)) {
		t.Fatalf("stderr %q does not name the broken segment", stderr)
	}
}

func TestVerifyChainRejectsFlatFile(t *testing.T) {
	path := writeFile(t, "flat.jsonl", `{"kind":"ken-trace","schema":2}`+"\n")
	code, _, stderr := runKenaudit(t, "", "-trace", path, "-verify-chain")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
	}
}

func TestStoreAuditMatchesFlatAudit(t *testing.T) {
	dir := writeCleanStore(t, 30, 7)
	code, _, stderr := runKenaudit(t, "", "-trace", dir, "-verify-chain", "-json", "rep.json", "-q")
	if code != 0 {
		t.Fatalf("exit %d on store audit, want 0 (stderr: %s)", code, stderr)
	}
	defer os.Remove("rep.json")
	var rep struct {
		Events int `json:"events"`
		Epochs int `json:"epochs"`
	}
	raw, err := os.ReadFile("rep.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Events != 90 || rep.Epochs != 30 {
		t.Fatalf("store audit saw %d events / %d epochs, want 90 / 30", rep.Events, rep.Epochs)
	}
}

func TestEpochWindowSeeksViaIndex(t *testing.T) {
	dir := writeCleanStore(t, 40, 9)
	var out, errb bytes.Buffer
	if c := run([]string{"-trace", dir, "-epochs", "10:19", "-json", "-", "-q"}, strings.NewReader(""), &out, &errb); c != 0 {
		t.Fatalf("exit %d (stderr: %s)", c, errb.String())
	}
	var rep struct {
		Epochs int `json:"epochs"`
		Events int `json:"events"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON report: %v\n%s", err, out.String())
	}
	if rep.Epochs != 10 || rep.Events != 30 {
		t.Fatalf("window 10:19 audited %d epochs / %d events, want 10 / 30", rep.Epochs, rep.Events)
	}
}

func TestScopeWindow(t *testing.T) {
	dir := t.TempDir()
	w, err := tracestore.Create(dir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracerSink(w)
	for _, scope := range []string{"cell/a", "cell/b", "other"} {
		sc := (&obs.Observer{Trace: tr}).Scoped(scope).Tracer()
		sp := sc.StartEpoch(obs.Event{Step: 1, Clique: 0, Node: -1})
		sp.EndEpoch(obs.Event{Step: 1, Clique: 0, Node: -1, N: 0})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if c := run([]string{"-trace", dir, "-scope", "cell", "-json", "-", "-q"}, strings.NewReader(""), &out, &errb); c != 0 {
		t.Fatalf("exit %d (stderr: %s)", c, errb.String())
	}
	var rep struct {
		Scopes []struct {
			Scope string `json:"scope"`
		} `json:"scopes"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scopes) != 2 || rep.Scopes[0].Scope != "cell/a" || rep.Scopes[1].Scope != "cell/b" {
		t.Fatalf("scope window audited %+v, want cell/a and cell/b only", rep.Scopes)
	}
}

func TestNoEventsMatchedWindow(t *testing.T) {
	dir := writeCleanStore(t, 5, 8)
	code, _, stderr := runKenaudit(t, "", "-trace", dir, "-scope", "nope", "-q")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "no events matched") {
		t.Fatalf("stderr %q does not report the empty window", stderr)
	}
}
