package sinkd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ken/internal/deploy"
	"ken/internal/slo"
	"ken/internal/stream"
	"ken/internal/wire"
)

// getSLO fetches /v1/slo?tenant=name and returns the status code with the
// decoded body (zero unless 200).
func getSLO(t *testing.T, base, name string) (int, slo.TenantStatus) {
	t.Helper()
	resp, err := http.Get(base + "/v1/slo?tenant=" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st slo.TenantStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// TestRejectedBuildLeavesNothingTracked: a spec that validates but cannot
// be built is rejected after the name was reserved. Nothing of it may
// outlive the reject — no tenant, no window going stale in the background
// of a daemon that lists no tenants.
func TestRejectedBuildLeavesNothingTracked(t *testing.T) {
	const staleAfter = 50 * time.Millisecond
	d, addr := newDaemon(t, Config{SLO: slo.Config{StaleAfter: staleAfter}})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	p := deploy.Params{Dataset: "garden", Seed: 1, TrainSteps: 1}
	if err := p.Validate(); err != nil {
		t.Fatalf("the spec must validate for this test to reach the build: %v", err)
	}
	conn, _, err := handshake(t, addr, wire.Hello{Tenant: "unbuildable", Spec: p.EncodeSpec()})
	conn.Close()
	if !errors.Is(err, wire.ErrSpecRejected) {
		t.Fatalf("handshake error %v, want a spec reject", err)
	}

	time.Sleep(2 * staleAfter)
	if rep := d.Health(); rep.Status != "ok" || len(rep.Tenants) != 0 {
		t.Fatalf("health after the reject: %+v, want ok with no tenants", rep)
	}
	if got := d.cfg.Obs.Registry().Snapshot().Gauges["slo_tenants_unhealthy"]; got != 0 {
		t.Fatalf("slo_tenants_unhealthy = %v for a daemon with no tenants", got)
	}
	if code, _ := getSLO(t, srv.URL, "unbuildable"); code != http.StatusNotFound {
		t.Fatalf("/v1/slo for the rejected tenant: %d, want 404", code)
	}
}

// TestReconnectStartsFreshWindow: a tenant that reconnects after a shed is
// a new session. It must not inherit the dead one's shed count, frame
// count or staleness clock — it was admitted a moment ago.
func TestReconnectStartsFreshWindow(t *testing.T) {
	const staleAfter = 400 * time.Millisecond
	d, addr := newDaemon(t, Config{
		FrameBudget: 1, ApplyDelay: 300 * time.Millisecond,
		SLO: slo.Config{StaleAfter: staleAfter},
	})
	shedTenant(t, d, addr, "again")
	if st, _ := d.SLO("again"); st.Health != slo.HealthShedding || st.Window.TotalSheds != 1 {
		t.Fatalf("after the shed: %s with %d sheds, want shedding with 1", st.Health, st.Window.TotalSheds)
	}
	time.Sleep(staleAfter + 100*time.Millisecond)

	p := deploy.Params{Dataset: "garden", Seed: 1, TestSteps: 3}
	conn, _, err := handshake(t, addr, wire.Hello{Tenant: "again", Spec: p.EncodeSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, ok := d.SLO("again")
	if !ok {
		t.Fatal("reconnected tenant unknown")
	}
	if st.Health == slo.HealthStale || st.Unhealthy {
		t.Errorf("reconnected tenant is %s (%v) before its first frame, want ok", st.Health, st.Reasons)
	}
	if st.Window.TotalSheds != 0 || st.Window.TotalFrames != 0 {
		t.Errorf("reconnected tenant starts with %d sheds and %d frames, want 0 and 0", st.Window.TotalSheds, st.Window.TotalFrames)
	}
}

// floodBlob is a whole session's frames as one byte string, with the
// reference replica they leave behind.
func floodBlob(t *testing.T, p deploy.Params) ([]byte, *stream.Replica) {
	t.Helper()
	dep, err := deploy.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stream.NewReplica(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	for _, row := range dep.Test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.WriteFrame(&blob, f, src.Resolution()); err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	return blob.Bytes(), ref
}

// wantWindow requires a closed tenant's window to have counted exactly
// what the reference replica applied — every frame once, none dropped.
func wantWindow(t *testing.T, d *Daemon, name string, ref *stream.Replica) {
	t.Helper()
	// Closed means the applier has returned, so the window is quiescent.
	if st, detail := waitForState(d, name, StateClosed); st != StateClosed {
		t.Fatalf("tenant %s: state %s (%s), want closed", name, st, detail)
	}
	st, _ := d.SLO(name)
	w := st.Window
	frames, values, heartbeats := ref.Counts()
	if w.TotalFrames != int64(frames) || w.Frames != int64(frames) ||
		w.Values != int64(values) || w.Heartbeats != int64(heartbeats) {
		t.Errorf("tenant %s: window total_frames=%d frames=%d values=%d heartbeats=%d, reference applied %d frames, %d values, %d heartbeats",
			name, w.TotalFrames, w.Frames, w.Values, w.Heartbeats, frames, values, heartbeats)
	}
}

// TestCountsSnapshotIsWhole: /v1/metrics and the tenant listing read a
// replica's counts while its applier keeps folding frames in, and each must
// come from one frame boundary. With a heartbeat every step, every applied
// frame is a heartbeat, so a snapshot whose heartbeats differ from its
// frames mixed two frames.
func TestCountsSnapshotIsWhole(t *testing.T) {
	const steps = 5000
	d, addr := newDaemon(t, Config{FrameBudget: steps})
	p := deploy.Params{Dataset: "garden", Seed: 9, TestSteps: steps, HeartbeatEvery: 1}
	blob, ref := floodBlob(t, p)
	conn, _, err := handshake(t, addr, wire.Hello{Tenant: "hb", Spec: p.EncodeSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(blob); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	tn, ok := d.lookup("hb")
	if !ok {
		t.Fatal("the accepted tenant is not registered")
	}
	midway := 0
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, _ := tn.snapshot()
		snap, _ := d.Metrics("hb")
		frames, hb := snap.Counters["stream_frames_applied_total"], snap.Counters["stream_heartbeats_applied_total"]
		if frames != hb {
			t.Fatalf("/v1/metrics snapshot: %d frames applied, %d heartbeats", frames, hb)
		}
		for _, info := range d.Tenants() {
			if info.Step != info.Heartbeats {
				t.Fatalf("tenant listing: step %d, %d heartbeats", info.Step, info.Heartbeats)
			}
		}
		if 0 < frames && frames < steps {
			midway++
		}
		if st == StateClosed || time.Now().After(deadline) {
			break
		}
	}
	wantWindow(t, d, "hb", ref)
	t.Logf("%d snapshots taken while the tenant drained", midway)
}

// TestWindowCountsEveryFrame is the exact-count invariant: a tenant's SLO
// window counts every applied frame once, at any rate. The first leg
// floods one tenant with 30 000 frames in a single write and looks only
// afterwards; the second streams eight tenants while four goroutines
// hammer /v1/slo and /v1/health (the race detector's leg).
func TestWindowCountsEveryFrame(t *testing.T) {
	const flood = 30000
	d, addr := newDaemon(t, Config{FrameBudget: flood})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	p := deploy.Params{Dataset: "garden", Seed: 9, TestSteps: flood, HeartbeatEvery: 24}
	blob, ref := floodBlob(t, p)
	conn, _, err := handshake(t, addr, wire.Hello{Tenant: "flood", Spec: p.EncodeSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(blob); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	wantWindow(t, d, "flood", ref)
	code, st := getSLO(t, srv.URL, "flood")
	var q QueryResponse
	resp, err := http.Get(srv.URL + "/v1/query?tenant=flood")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || st.Window.TotalFrames != flood || q.Answer.Step != flood {
		t.Fatalf("/v1/slo %d total_frames=%d, /v1/query answer.step=%d, want both %d", code, st.Window.TotalFrames, q.Answer.Step, flood)
	}

	const tenants, steps = 8, 400
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for g := 0; g < 4; g++ {
		pollers.Add(1)
		go func(g int) {
			defer pollers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := "/v1/health"
				if i%2 == 0 {
					path = fmt.Sprintf("/v1/slo?tenant=hammer%d", (g+i)%tenants)
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	hp := deploy.Params{Dataset: "garden", Seed: 10, TestSteps: steps, HeartbeatEvery: 24}
	dep, err := deploy.Build(hp)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*stream.Replica, tenants)
	var writers sync.WaitGroup
	for i := range refs {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			ref, err := runTenantWith(addr, fmt.Sprintf("hammer%d", i), hp, dep)
			if err != nil {
				t.Error(err)
			}
			refs[i] = ref
		}(i)
	}
	writers.Wait()
	for i, ref := range refs {
		if ref != nil {
			wantWindow(t, d, fmt.Sprintf("hammer%d", i), ref)
		}
	}
	close(stop)
	pollers.Wait()
}
