package sinkd

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ken/internal/deploy"
	"ken/internal/obs"
	"ken/internal/slo"
	"ken/internal/stream"
	"ken/internal/wire"
)

// shedTenant drives the named tenant into the shed state: one-frame
// budget daemons with a slowed applier overflow on a three-frame burst.
// The daemon must have been built with FrameBudget 1 and a large
// ApplyDelay.
func shedTenant(t *testing.T, d *Daemon, addr, name string) {
	t.Helper()
	p := deploy.Params{Dataset: "garden", Seed: 1, TestSteps: 3}
	dep, err := deploy.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := stream.Handshake(conn, wire.Hello{Tenant: name, Spec: p.EncodeSpec()}); err != nil {
		t.Fatal(err)
	}
	for i, row := range dep.Test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.WriteFrame(conn, f, src.Resolution()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	s, err := stream.ReadSession(conn)
	if err != nil {
		t.Fatal(err)
	}
	if s.Reject == nil || s.Reject.Code != wire.RejectSlowTenant {
		t.Fatalf("shed answered with %+v, want slow-tenant reject", s)
	}
	if st, detail := waitForState(d, name, StateShed); st != StateShed {
		t.Fatalf("tenant state %s (%s), want shed", st, detail)
	}
}

// TestHealthEndpoint walks /v1/health through the full transition: 200
// "ok" while a tenant streams and after it closes cleanly, 503 "degraded"
// the moment a tenant is shed — the smoke test's end-to-end probe, pinned
// here at the package level.
func TestHealthEndpoint(t *testing.T) {
	d, addr := newDaemon(t, Config{FrameBudget: 1, ApplyDelay: 300 * time.Millisecond})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	getHealth := func(t *testing.T) (int, HealthReport) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}

	// No tenants yet: healthy and empty.
	code, rep := getHealth(t)
	if code != http.StatusOK || rep.Status != "ok" || len(rep.Tenants) != 0 {
		t.Fatalf("empty daemon: code=%d report=%+v, want 200 ok", code, rep)
	}

	// A tenant that finishes cleanly stays benign: terminal, but not
	// unhealthy, so the daemon keeps answering 200. One frame only: this
	// daemon's one-frame budget and slowed applier would shed a second
	// frame that arrived before the applier's first dequeue.
	p := deploy.Params{Dataset: "garden", Seed: 2, TestSteps: 1}
	if _, err := runTenant(addr, "clean", p); err != nil {
		t.Fatal(err)
	}
	if st, detail := waitForState(d, "clean", StateClosed); st != StateClosed {
		t.Fatalf("tenant state %s (%s), want closed", st, detail)
	}
	code, rep = getHealth(t)
	if code != http.StatusOK || rep.Status != "ok" || rep.Unhealthy != 0 {
		t.Fatalf("after clean close: code=%d report status=%s unhealthy=%d, want 200 ok 0", code, rep.Status, rep.Unhealthy)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Health != slo.HealthTerminal {
		t.Fatalf("closed tenant entry: %+v, want terminal", rep.Tenants)
	}

	// Shedding flips the daemon to 503 with a machine-readable reason.
	shedTenant(t, d, addr, "slow")
	code, rep = getHealth(t)
	if code != http.StatusServiceUnavailable || rep.Status != "degraded" || rep.Unhealthy != 1 {
		t.Fatalf("after shed: code=%d status=%s unhealthy=%d, want 503 degraded 1", code, rep.Status, rep.Unhealthy)
	}
	var shed *HealthTenant
	for i := range rep.Tenants {
		if rep.Tenants[i].Name == "slow" {
			shed = &rep.Tenants[i]
		}
	}
	if shed == nil || shed.Health != slo.HealthShedding || shed.State != StateShed {
		t.Fatalf("shed tenant entry: %+v, want shedding/shed", shed)
	}
	found := false
	for _, r := range shed.Reasons {
		if r == slo.ReasonShed {
			found = true
		}
	}
	if !found {
		t.Fatalf("shed reasons %v, want %q", shed.Reasons, slo.ReasonShed)
	}
	if shed.Window.TotalSheds != 1 {
		t.Fatalf("shed tenant's window counts %d sheds, want 1", shed.Window.TotalSheds)
	}
}

// TestSLOEndpoint pins /v1/slo: windowed numbers for a live tenant, 400
// without a tenant, 404 for an unknown one.
func TestSLOEndpoint(t *testing.T) {
	d, addr := newDaemon(t, Config{})
	const steps = 30
	p := deploy.Params{Dataset: "garden", Seed: 2, TestSteps: steps}
	if _, err := runTenant(addr, "web", p); err != nil {
		t.Fatal(err)
	}
	if _, err := waitForStep(d, "web", steps); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/slo?tenant=web")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo?tenant=web: %s", resp.Status)
	}
	var st slo.TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "web" || st.Window.TotalFrames != steps || st.Window.LastStep != steps-1 {
		t.Fatalf("slo status %+v, want %d total frames ending at step %d", st, steps, steps-1)
	}
	if st.Window.QueueCap != 256 {
		t.Fatalf("queue cap %d, want the default frame budget 256", st.Window.QueueCap)
	}

	for path, code := range map[string]int{
		"/v1/slo":               http.StatusBadRequest,
		"/v1/slo?tenant=nobody": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("GET %s: got %s, want %d", path, resp.Status, code)
		}
	}
}

// TestTerminalTenantQueryable pins the sticky-terminal contract on the
// HTTP surface: shed and closed tenants keep answering /v1/query and
// /v1/metrics with 200 and their frozen state — shedding disconnects the
// source, never the readers.
func TestTerminalTenantQueryable(t *testing.T) {
	d, addr := newDaemon(t, Config{FrameBudget: 1, ApplyDelay: 300 * time.Millisecond})
	shedTenant(t, d, addr, "slow")
	// The shed disconnects the source; the already-queued frames still
	// drain through the (slowed) applier. Wait for them so the frozen
	// answer below is past step 0.
	if _, err := waitForStep(d, "slow", 1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var q QueryResponse
	resp, err := http.Get(srv.URL + "/v1/query?tenant=slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query on shed tenant: %s, want 200", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.State != StateShed || len(q.Answer.Estimates) == 0 {
		t.Fatalf("shed query %+v, want state shed with a frozen answer", q)
	}

	var ms obs.Snapshot
	resp2, err := http.Get(srv.URL + "/v1/metrics?tenant=slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics on shed tenant: %s, want 200", resp2.Status)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if ms.Counters["stream_frames_applied_total"] == 0 {
		t.Fatalf("shed tenant metrics %+v, want applied frames > 0", ms.Counters)
	}

	// A cleanly closed tenant answers the same way, with state "closed" —
	// on a healthy daemon, so the budget fault above cannot shed it too.
	d2, addr2 := newDaemon(t, Config{})
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	p := deploy.Params{Dataset: "garden", Seed: 2, TestSteps: 4}
	if _, err := runTenant(addr2, "done", p); err != nil {
		t.Fatal(err)
	}
	if st, detail := waitForState(d2, "done", StateClosed); st != StateClosed {
		t.Fatalf("tenant state %s (%s), want closed", st, detail)
	}
	resp3, err := http.Get(srv2.URL + "/v1/query?tenant=done")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query on closed tenant: %s, want 200", resp3.Status)
	}
	var qc QueryResponse
	if err := json.NewDecoder(resp3.Body).Decode(&qc); err != nil {
		t.Fatal(err)
	}
	if qc.State != StateClosed || qc.Answer.Step != 4 {
		t.Fatalf("closed query %+v, want state closed at step 4", qc)
	}
}

// TestRequestLogMiddleware captures the default slog output and checks
// every /v1 request emits one structured line and feeds the HTTP metrics.
func TestRequestLogMiddleware(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(prev)

	d, _ := newDaemon(t, Config{})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	get := func(path string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/v1/tenants")
	get("/v1/query?tenant=nobody")

	logs := buf.String()
	if !strings.Contains(logs, "method=GET") || !strings.Contains(logs, "path=/v1/tenants") || !strings.Contains(logs, "status=200") {
		t.Errorf("request log missing the /v1/tenants line:\n%s", logs)
	}
	if !strings.Contains(logs, "path=/v1/query") || !strings.Contains(logs, "tenant=nobody") || !strings.Contains(logs, "status=404") {
		t.Errorf("request log missing the 404 query line:\n%s", logs)
	}

	snap := d.cfg.Obs.Registry().Snapshot()
	if snap.Counters["sinkd_http_requests_total"] != 2 {
		t.Errorf("sinkd_http_requests_total=%d, want 2", snap.Counters["sinkd_http_requests_total"])
	}
	if snap.Histograms["sinkd_http_request_seconds"].Count != 2 {
		t.Errorf("sinkd_http_request_seconds count=%d, want 2", snap.Histograms["sinkd_http_request_seconds"].Count)
	}
}

// TestMonitorSeesApplies checks the applier → window plumbing end to end
// in process: after a session the tenant's window carries every applied
// frame, and the daemon's registry carries the shared slo_* series.
func TestMonitorSeesApplies(t *testing.T) {
	d, addr := newDaemon(t, Config{})
	const steps = 25
	p := deploy.Params{Dataset: "garden", Seed: 3, TestSteps: steps, HeartbeatEvery: 10}
	ref, err := runTenant(addr, "mon", p)
	if err != nil {
		t.Fatal(err)
	}
	// Closed means the applier has returned: every frame folded, the
	// shared series flushed.
	if st, detail := waitForState(d, "mon", StateClosed); st != StateClosed {
		t.Fatalf("tenant state %s (%s), want closed", st, detail)
	}
	st, ok := d.SLO("mon")
	if !ok {
		t.Fatal("daemon does not know tenant mon")
	}
	if _, values, _ := ref.Counts(); st.Window.TotalFrames != steps || st.Window.Values != int64(values) {
		t.Fatalf("window frames=%d values=%d, want %d and %d", st.Window.TotalFrames, st.Window.Values, steps, values)
	}
	if st.Window.Heartbeats == 0 {
		t.Fatal("window saw no heartbeat frames despite HeartbeatEvery=10")
	}
	if st.Window.LatencyP95 <= 0 {
		t.Fatalf("latency p95=%v, want > 0", st.Window.LatencyP95)
	}
	snap := d.cfg.Obs.Registry().Snapshot()
	if got := snap.Histograms["slo_apply_latency_seconds"].Count; got != steps {
		t.Fatalf("slo_apply_latency_seconds count=%d, want %d", got, steps)
	}
	if got := snap.Counters["slo_eps_deviations_total"]; got != st.Window.Deviations || got == 0 {
		t.Fatalf("slo_eps_deviations_total=%d, window deviations %d, want equal and > 0", got, st.Window.Deviations)
	}
}
