package sinkd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ken/internal/deploy"
	"ken/internal/leaktest"
	"ken/internal/obs"
	"ken/internal/query"
	"ken/internal/stream"
	"ken/internal/wire"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// newDaemon starts a daemon on an ephemeral port and tears it down with
// the test.
func newDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	d := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(ln) }()
	t.Cleanup(func() { _ = ln.Close(); d.Close() })
	return d, ln.Addr().String()
}

// runTenant plays one full source session against the daemon and mirrors
// every frame into a local reference replica — the bit-identical oracle.
func runTenant(addr, name string, p deploy.Params) (*stream.Replica, error) {
	dep, err := deploy.Build(p)
	if err != nil {
		return nil, err
	}
	return runTenantWith(addr, name, p, dep)
}

func runTenantWith(addr, name string, p deploy.Params, dep *deploy.Deployment) (*stream.Replica, error) {
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		return nil, err
	}
	ref, err := stream.NewReplica(dep.Config)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := stream.Handshake(conn, wire.Hello{Tenant: name, Spec: p.EncodeSpec()}); err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	if err := src.Pump(conn, dep.Test, ref.Apply); err != nil {
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	return ref, nil
}

// waitForStep polls until the tenant's answer reaches step (the daemon
// applies asynchronously, so the stream can close before the queue drains).
func waitForStep(d *Daemon, name string, step int) (stream.Answer, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ans, ok := d.Answer(name)
		if ok && ans.Step >= step {
			return ans, nil
		}
		if time.Now().After(deadline) {
			return ans, fmt.Errorf("tenant %s stuck at step %d, want %d", name, ans.Step, step)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestSingleTenantEndToEnd(t *testing.T) {
	d, addr := newDaemon(t, Config{})
	p := deploy.Params{Dataset: "garden", Seed: 3, TestSteps: 80, HeartbeatEvery: 10}
	dep, err := deploy.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// Two more sessions of the same spec register first, in descending
	// name order; the listing must still come out sorted by name.
	for _, name := range []string{"solo-c", "solo-b"} {
		if _, err := runTenantWith(addr, name, p, dep); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := runTenantWith(addr, "solo", p, dep)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := waitForStep(d, "solo", 80)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Answer()
	if !sameBits(ans.Estimates, want.Estimates) {
		t.Fatalf("daemon replica diverged:\n got  %v\n want %v", ans.Estimates, want.Estimates)
	}
	if ans.Heartbeats != want.Heartbeats || ans.Heartbeats == 0 {
		t.Fatalf("heartbeats: daemon %d, reference %d", ans.Heartbeats, want.Heartbeats)
	}
	var names []string
	for _, tn := range d.Tenants() {
		if tn.Spec != p.ReplicaKey() {
			t.Fatalf("tenant %s has spec %q, want %q", tn.Name, tn.Spec, p.ReplicaKey())
		}
		names = append(names, tn.Name)
	}
	if want := []string{"solo", "solo-b", "solo-c"}; !slices.Equal(names, want) {
		t.Fatalf("tenants listed %v, want %v", names, want)
	}
	st, _ := waitForState(d, "solo", StateClosed)
	if st != StateClosed {
		t.Fatalf("tenant state %s, want closed", st)
	}
	if got := d.mAccepts.Value(); got != 3 {
		t.Fatalf("sinkd_sessions_accepted_total = %d, want 3", got)
	}
}

// waitForState polls for the tenant to reach a terminal state.
func waitForState(d *Daemon, name string, want TenantState) (TenantState, string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		tn, ok := d.lookup(name)
		if ok {
			if st, detail := tn.snapshot(); st == want || time.Now().After(deadline) {
				return st, detail
			}
		} else if time.Now().After(deadline) {
			return "", "tenant never registered"
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManyTenantsBitIdentical is the headline multi-tenant guarantee: 64
// concurrent sessions over four distinct deployments, every daemon
// replica bit-identical to a single-tenant reference fed the same frames.
func TestManyTenantsBitIdentical(t *testing.T) {
	const tenants, specs, steps = 64, 4, 60
	d, addr := newDaemon(t, Config{})

	deps := make([]*deploy.Deployment, specs)
	params := make([]deploy.Params, specs)
	for i := range deps {
		params[i] = deploy.Params{Dataset: "garden", Seed: int64(i + 1), TestSteps: steps, HeartbeatEvery: 16}
		dep, err := deploy.Build(params[i])
		if err != nil {
			t.Fatal(err)
		}
		deps[i] = dep
	}

	refs := make([]*stream.Replica, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := i % specs
			ref, err := runTenantWith(addr, fmt.Sprintf("swarm-%02d", i), params[s], deps[s])
			if err != nil {
				t.Error(err)
				return
			}
			refs[i] = ref
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("swarm-%02d", i)
		ans, err := waitForStep(d, name, steps)
		if err != nil {
			t.Fatal(err)
		}
		want := refs[i].Answer()
		if !sameBits(ans.Estimates, want.Estimates) {
			t.Fatalf("%s diverged from its reference replica", name)
		}
		if ans.Heartbeats != want.Heartbeats {
			t.Fatalf("%s heartbeats: %d vs %d", name, ans.Heartbeats, want.Heartbeats)
		}
	}
	// Four distinct replica keys → exactly four builds, shared by 64 tenants.
	d.mu.Lock()
	builds := len(d.builds)
	d.mu.Unlock()
	if builds != specs {
		t.Fatalf("%d builds for %d specs", builds, specs)
	}
	if got := d.mAccepts.Value(); got != tenants {
		t.Fatalf("accepted %d sessions, want %d", got, tenants)
	}
}

func handshake(t *testing.T, addr string, h wire.Hello) (net.Conn, wire.Accept, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := stream.Handshake(conn, h)
	return conn, acc, err
}

func TestTypedRejects(t *testing.T) {
	pin := deploy.Params{Dataset: "garden", Seed: 1}
	d, addr := newDaemon(t, Config{MaxTenants: 2, Pin: &pin})
	spec := pin.EncodeSpec()

	t.Run("version skew", func(t *testing.T) {
		conn, _, err := handshake(t, addr, wire.Hello{Version: 99, Tenant: "v", Spec: spec})
		defer conn.Close()
		if !errors.Is(err, wire.ErrVersionMismatch) {
			t.Fatalf("got %v, want ErrVersionMismatch", err)
		}
		if !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v99") {
			t.Fatalf("error %q does not name both versions", err)
		}
	})

	t.Run("stale pre-session peer", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		f := wire.Frame{Step: 0, Attrs: []int{0}, Values: []float64{1}}
		if err := stream.WriteFrame(conn, f, 0.01); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		s, err := stream.ReadSession(conn)
		if err != nil {
			t.Fatal(err)
		}
		if s.Reject == nil || s.Reject.Code != wire.RejectVersion {
			t.Fatalf("stale peer answered with %+v, want version reject", s)
		}
	})

	t.Run("bad spec bytes", func(t *testing.T) {
		conn, _, err := handshake(t, addr, wire.Hello{Tenant: "b", Spec: []byte{0x09, 0x01}})
		defer conn.Close()
		if !errors.Is(err, wire.ErrSpecRejected) || !strings.Contains(err.Error(), "bad-spec") {
			t.Fatalf("got %v, want bad-spec ErrSpecRejected", err)
		}
	})

	t.Run("invalid spec", func(t *testing.T) {
		bad := deploy.Params{Dataset: "office"}
		conn, _, err := handshake(t, addr, wire.Hello{Tenant: "b2", Spec: bad.EncodeSpec()})
		defer conn.Close()
		if !errors.Is(err, wire.ErrSpecRejected) || !strings.Contains(err.Error(), "bad-spec") {
			t.Fatalf("got %v, want bad-spec ErrSpecRejected", err)
		}
	})

	t.Run("pin mismatch", func(t *testing.T) {
		other := deploy.Params{Dataset: "garden", Seed: 2}
		conn, _, err := handshake(t, addr, wire.Hello{Tenant: "p", Spec: other.EncodeSpec()})
		defer conn.Close()
		if !errors.Is(err, wire.ErrSpecRejected) || !strings.Contains(err.Error(), "spec-mismatch") {
			t.Fatalf("got %v, want spec-mismatch ErrSpecRejected", err)
		}
		// The reject names both replica keys so the operator sees the gap.
		if !strings.Contains(err.Error(), pin.ReplicaKey()) || !strings.Contains(err.Error(), other.ReplicaKey()) {
			t.Fatalf("error %q does not name both specs", err)
		}
	})

	t.Run("pin accepts TestSteps variants", func(t *testing.T) {
		variant := pin
		variant.TestSteps = 7777 // source-local: same replica key
		conn, acc, err := handshake(t, addr, wire.Hello{Tenant: "ok", Spec: variant.EncodeSpec()})
		defer conn.Close()
		if err != nil {
			t.Fatalf("pinned sink rejected a TestSteps variant: %v", err)
		}
		if acc.Tenant != "ok" {
			t.Fatalf("accept %+v", acc)
		}
	})

	t.Run("duplicate live tenant", func(t *testing.T) {
		conn1, _, err := handshake(t, addr, wire.Hello{Tenant: "dup", Spec: spec})
		defer conn1.Close()
		if err != nil {
			t.Fatal(err)
		}
		conn2, _, err := handshake(t, addr, wire.Hello{Tenant: "dup", Spec: spec})
		defer conn2.Close()
		if !errors.Is(err, wire.ErrSpecRejected) || !strings.Contains(err.Error(), "duplicate-tenant") {
			t.Fatalf("got %v, want duplicate-tenant ErrSpecRejected", err)
		}
	})

	t.Run("overloaded", func(t *testing.T) {
		// Earlier subtests' sessions have closed their connections; wait for
		// them to go terminal so only this subtest's two count against the cap.
		for _, name := range []string{"ok", "dup"} {
			if st, detail := waitForState(d, name, StateClosed); st != StateClosed {
				t.Fatalf("tenant %s stuck in %s (%s)", name, st, detail)
			}
		}
		c1, _, err := handshake(t, addr, wire.Hello{Tenant: "o1", Spec: spec})
		defer c1.Close()
		if err != nil {
			t.Fatal(err)
		}
		c2, _, err := handshake(t, addr, wire.Hello{Tenant: "o2", Spec: spec})
		defer c2.Close()
		if err != nil {
			t.Fatal(err)
		}
		conn, _, err := handshake(t, addr, wire.Hello{Tenant: "over", Spec: spec})
		defer conn.Close()
		if !errors.Is(err, wire.ErrSpecRejected) || !strings.Contains(err.Error(), "overloaded") {
			t.Fatalf("got %v, want overloaded ErrSpecRejected", err)
		}
	})
}

// TestEmptyTenantAssigned: an empty HELLO name gets a daemon-assigned one.
func TestEmptyTenantAssigned(t *testing.T) {
	_, addr := newDaemon(t, Config{})
	p := deploy.Params{Dataset: "garden", Seed: 1, TestSteps: 5}
	conn, acc, err := handshake(t, addr, wire.Hello{Spec: p.EncodeSpec()})
	defer conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if acc.Tenant != "t1" {
		t.Fatalf("assigned tenant %q, want t1", acc.Tenant)
	}
}

// TestShedSlowTenant exercises the backpressure path: with a one-frame
// budget and a deliberately slow applier, the third frame overflows, the
// daemon sheds the tenant with a typed RejectSlowTenant and the replica
// stays queryable.
func TestShedSlowTenant(t *testing.T) {
	d, addr := newDaemon(t, Config{FrameBudget: 1, ApplyDelay: 300 * time.Millisecond})
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
	if _, err := stream.Handshake(conn, wire.Hello{Tenant: "slow", Spec: p.EncodeSpec()}); err != nil {
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
			// Let the applier dequeue frame 0 before the burst, so the shed
			// lands deterministically on frame 2 with nothing left unread.
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
	if rejErr := s.Reject.Err(); !errors.Is(rejErr, wire.ErrSpecRejected) || !strings.Contains(rejErr.Error(), "shed") {
		t.Fatalf("reject error %v", rejErr)
	}
	st, detail := waitForState(d, "slow", StateShed)
	if st != StateShed || !strings.Contains(detail, "budget") {
		t.Fatalf("tenant state %s (%s), want shed", st, detail)
	}
	if got := d.mShed.Value(); got != 1 {
		t.Fatalf("sinkd_tenants_shed_total = %d", got)
	}
	if _, ok := d.Answer("slow"); !ok {
		t.Fatal("shed tenant's replica no longer queryable")
	}
}

// TestCloseJoinsAppliersUnderLoad shuts the daemon down while several
// tenants' appliers are still draining slowed frame queues, and verifies
// Close joins every applier goroutine: once it returns the frame counter
// is quiescent and every tenant has reached a terminal state.
func TestCloseJoinsAppliersUnderLoad(t *testing.T) {
	d := New(Config{ApplyDelay: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(ln) }()
	addr := ln.Addr().String()

	p := deploy.Params{Dataset: "garden", Seed: 5, TestSteps: 40}
	dep, err := deploy.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 3
	var writers sync.WaitGroup
	conns := make([]net.Conn, tenants)
	for i := 0; i < tenants; i++ {
		src, err := stream.NewSource(dep.Config)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		if _, err := stream.Handshake(conn, wire.Hello{Tenant: fmt.Sprintf("load%d", i), Spec: p.EncodeSpec()}); err != nil {
			t.Fatal(err)
		}
		writers.Add(1)
		go func(src *stream.Source, conn net.Conn) {
			defer writers.Done()
			for _, row := range dep.Test {
				f, err := src.Collect(row)
				if err != nil {
					return
				}
				// Write errors just end the writer: the daemon may close the
				// connection under us mid-shutdown, which is the point.
				if err := stream.WriteFrame(conn, f, src.Resolution()); err != nil {
					return
				}
			}
		}(src, conn)
	}

	// Let frames pile up behind the slowed appliers, then pull the plug.
	time.Sleep(100 * time.Millisecond)
	_ = ln.Close()
	d.Close()

	applied := d.mFrames.Value()
	time.Sleep(3 * 20 * time.Millisecond)
	if got := d.mFrames.Value(); got != applied {
		t.Fatalf("appliers still running after Close: frames %d -> %d", applied, got)
	}
	for _, info := range d.Tenants() {
		if !info.State.terminal() {
			t.Fatalf("tenant %s left in state %q after Close", info.Name, info.State)
		}
	}
	writers.Wait()
	for _, c := range conns {
		_ = c.Close()
	}
}

// TestHTTPAPI drives the /v1 endpoints end to end against a live tenant.
func TestHTTPAPI(t *testing.T) {
	d, addr := newDaemon(t, Config{})
	const steps = 40
	p := deploy.Params{Dataset: "garden", Seed: 2, TestSteps: steps}
	ref, err := runTenant(addr, "web", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitForStep(d, "web", steps); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	getJSON := func(t *testing.T, path string, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	wantStatus := func(t *testing.T, path string, code int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Fatalf("GET %s: got %s, want %d", path, resp.Status, code)
		}
	}

	var tl struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	getJSON(t, "/v1/tenants", &tl)
	if len(tl.Tenants) != 1 || tl.Tenants[0].Name != "web" || tl.Tenants[0].Step != steps {
		t.Fatalf("/v1/tenants: %+v", tl)
	}

	var q QueryResponse
	getJSON(t, "/v1/query?tenant=web", &q)
	want := ref.Answer()
	// JSON float64 round-trips exactly, so even over HTTP the answer must
	// be bit-identical to the reference replica.
	if q.Answer.Step != steps || !sameBits(q.Answer.Estimates, want.Estimates) {
		t.Fatalf("/v1/query diverged:\n got  %+v\n want %+v", q.Answer, want)
	}

	var qa QueryResponse
	getJSON(t, "/v1/query?tenant=web&agg=avg&attrs=0,1", &qa)
	if qa.Aggregate == nil {
		t.Fatal("agg=avg returned no aggregate")
	}
	wantAgg, err := query.EvalSnapshot(want.Estimates, want.Eps, query.Avg, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if qa.Aggregate.Agg != "avg" || qa.Aggregate.Count != 2 ||
		math.Float64bits(qa.Aggregate.Value) != math.Float64bits(wantAgg.Value) ||
		math.Float64bits(qa.Aggregate.Bound) != math.Float64bits(wantAgg.Bound) {
		t.Fatalf("aggregate %+v, want %+v", qa.Aggregate, wantAgg)
	}

	var ms obs.Snapshot
	getJSON(t, "/v1/metrics?tenant=web", &ms)
	if ms.Counters["stream_frames_applied_total"] != steps {
		t.Fatalf("per-tenant metrics: %+v", ms.Counters)
	}

	// Bare /v1/metrics serves the daemon-wide snapshot.
	var ds obs.Snapshot
	getJSON(t, "/v1/metrics", &ds)
	if ds.Counters["sinkd_sessions_accepted_total"] != 1 ||
		ds.Counters["sinkd_frames_total"] != steps {
		t.Fatalf("daemon-wide metrics: %+v", ds.Counters)
	}

	wantStatus(t, "/v1/query", http.StatusBadRequest)
	wantStatus(t, "/v1/query?tenant=nobody", http.StatusNotFound)
	wantStatus(t, "/v1/query?tenant=web&agg=median", http.StatusBadRequest)
	wantStatus(t, "/v1/query?tenant=web&agg=avg&attrs=zero", http.StatusBadRequest)
	wantStatus(t, "/v1/query?tenant=web&agg=avg&attrs=999", http.StatusBadRequest)
	wantStatus(t, "/v1/metrics?tenant=nobody", http.StatusNotFound)

	// A tenant whose replica is still building answers 409, not a panic.
	if tn, _, _ := d.register("pending", p, ""); tn == nil {
		t.Fatal("register failed")
	}
	wantStatus(t, "/v1/query?tenant=pending", http.StatusConflict)
}

// TestCloseKeepsTenantsQueryable: Close drops connections but answers
// must survive until the process exits.
func TestCloseKeepsTenantsQueryable(t *testing.T) {
	d := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(ln) }()
	p := deploy.Params{Dataset: "garden", Seed: 4, TestSteps: 10}
	ref, err := runTenant(ln.Addr().String(), "keep", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitForStep(d, "keep", 10); err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	d.Close()
	ans, ok := d.Answer("keep")
	if !ok || !sameBits(ans.Estimates, ref.Answer().Estimates) {
		t.Fatal("answer lost after Close")
	}
}
