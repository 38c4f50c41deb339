package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ken/internal/deploy"
	"ken/internal/leaktest"
	"ken/internal/sinkd"
	"ken/internal/stream"
	"ken/internal/wire"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestRunFlagError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// startDaemon runs options.run under a cancellable context and hands back
// the bound session and HTTP addresses.
func startDaemon(t *testing.T, o options) ([2]string, *bytes.Buffer, <-chan error, context.CancelFunc) {
	t.Helper()
	ready := make(chan [2]string, 1)
	o.ready = ready
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() { errCh <- o.run(ctx, &out) }()
	select {
	case addrs := <-ready:
		return addrs, &out, errCh, cancel
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
		return [2]string{}, nil, nil, nil
	}
}

func streamTenant(t *testing.T, addr, name string, p deploy.Params) {
	t.Helper()
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
	if err := src.Pump(conn, dep.Test, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	o := options{listen: "127.0.0.1:0", httpAddr: "127.0.0.1:0", maxTenants: 8, frameBudget: 64}
	addrs, out, errCh, cancel := startDaemon(t, o)
	defer cancel()

	const steps = 25
	p := deploy.Params{Dataset: "garden", Seed: 1, TestSteps: steps}
	streamTenant(t, addrs[0], "e2e", p)

	// The daemon applies asynchronously; poll the query API until done.
	var q sinkd.QueryResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/query?tenant=e2e", addrs[1]))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if q.Answer.Step >= steps {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query stuck at step %d, want %d", q.Answer.Step, steps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(q.Answer.Estimates) == 0 || len(q.Answer.Eps) != len(q.Answer.Estimates) {
		t.Fatalf("answer %+v", q.Answer)
	}

	// The health endpoint is live on the same mux: a tenant that streamed
	// to completion leaves the daemon healthy (clean close is benign).
	hresp, err := http.Get(fmt.Sprintf("http://%s/v1/health", addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	var rep sinkd.HealthReport
	if err := json.NewDecoder(hresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || rep.Status != "ok" || len(rep.Tenants) != 1 {
		t.Fatalf("/v1/health: code=%d report=%+v, want 200 ok with 1 tenant", hresp.StatusCode, rep)
	}

	cancel()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kensinkd: sessions on") ||
		!strings.Contains(out.String(), "kensinkd: query API on http://") {
		t.Fatalf("stdout: %q", out.String())
	}
}

// TestDaemonPin: with -pin the daemon admits only its own flag block's
// deployment and rejects everything else with a typed spec mismatch.
func TestDaemonPin(t *testing.T) {
	o := options{
		listen: "127.0.0.1:0", httpAddr: "",
		pin:    true,
		params: deploy.Params{Dataset: "garden", Seed: 1},
	}
	addrs, _, errCh, cancel := startDaemon(t, o)
	defer cancel()

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	other := deploy.Params{Dataset: "garden", Seed: 2, TestSteps: 5}
	_, err = stream.Handshake(conn, wire.Hello{Tenant: "bad", Spec: other.EncodeSpec()})
	if !errors.Is(err, wire.ErrSpecRejected) || !strings.Contains(err.Error(), "spec-mismatch") {
		t.Fatalf("got %v, want spec-mismatch ErrSpecRejected", err)
	}

	// A future-version HELLO is typed as version skew on both ends — the
	// daemon answers REJECT(version), the client surfaces
	// ErrVersionMismatch — even when the spec it carries is the pinned one.
	skew, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer skew.Close()
	match := deploy.Params{Dataset: "garden", Seed: 1, TestSteps: 5}
	_, err = stream.Handshake(skew, wire.Hello{Version: 9, Tenant: "v9", Spec: match.EncodeSpec()})
	if !errors.Is(err, wire.ErrVersionMismatch) || !strings.Contains(err.Error(), "v9") {
		t.Fatalf("got %v, want ErrVersionMismatch naming v9", err)
	}

	// The pinned spec itself — with a different step count — is admitted.
	ok, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if _, err := stream.Handshake(ok, wire.Hello{Tenant: "good", Spec: match.EncodeSpec()}); err != nil {
		t.Fatalf("pinned daemon rejected its own spec: %v", err)
	}

	cancel()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
