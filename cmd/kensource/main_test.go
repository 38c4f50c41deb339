package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"ken/internal/deploy"
	"ken/internal/stream"
	"ken/internal/wire"
)

func TestRunFlagError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// fakeSink accepts one connection, decodes the HELLO spec, builds the
// replica it describes and applies the stream — the sink side of the
// session contract, minus any daemon machinery.
func fakeSink(t *testing.T) (string, <-chan *stream.Replica) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	out := make(chan *stream.Replica, 1)
	go func() {
		defer close(out)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		h, err := stream.ReadHello(conn)
		if err != nil {
			t.Errorf("fake sink ReadHello: %v", err)
			return
		}
		p, err := deploy.DecodeSpec(h.Spec)
		if err != nil {
			t.Errorf("fake sink DecodeSpec: %v", err)
			return
		}
		dep, err := deploy.Build(p)
		if err != nil {
			t.Errorf("fake sink Build: %v", err)
			return
		}
		replica, err := stream.NewReplica(dep.Config)
		if err != nil {
			t.Errorf("fake sink NewReplica: %v", err)
			return
		}
		if err := stream.WriteAccept(conn, wire.Accept{Tenant: h.Tenant}); err != nil {
			t.Errorf("fake sink WriteAccept: %v", err)
			return
		}
		if err := replica.Serve(conn); err != nil {
			t.Errorf("fake sink Serve: %v", err)
			return
		}
		out <- replica
	}()
	return ln.Addr().String(), out
}

func TestSourceStreamsSpec(t *testing.T) {
	addr, sunk := fakeSink(t)
	o := options{
		connect: addr,
		tenant:  "ct",
		params:  deploy.Params{Dataset: "garden", Seed: 2, TestSteps: 15, HeartbeatEvery: 5},
	}
	var out bytes.Buffer
	if err := o.run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kensource: tenant ct sent") {
		t.Fatalf("stdout: %q", out.String())
	}
	replica := <-sunk
	if replica == nil {
		t.Fatal("fake sink never finished")
	}
	frames, _, heartbeats := replica.Counts()
	if frames != 15 {
		t.Fatalf("sink applied %d steps, want 15", frames)
	}
	if heartbeats == 0 {
		t.Fatal("heartbeat frames never arrived")
	}
}

// TestSourceSurfacesTypedReject: a rejecting sink maps onto the typed
// wire errors, and the CLI exit path prints "spec rejected" and fails.
func TestSourceSurfacesTypedReject(t *testing.T) {
	reject := func(t *testing.T, code wire.RejectCode) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := stream.ReadHello(conn); err != nil {
				return
			}
			_ = stream.WriteReject(conn, wire.Reject{Code: code, Reason: "test says no"})
		}()
		return ln.Addr().String()
	}

	o := options{connect: reject(t, wire.RejectSpecMismatch), params: deploy.Params{TestSteps: 5}}
	err := o.run(io.Discard)
	if !errors.Is(err, wire.ErrSpecRejected) {
		t.Fatalf("got %v, want ErrSpecRejected", err)
	}

	o.connect = reject(t, wire.RejectVersion)
	if err := o.run(io.Discard); !errors.Is(err, wire.ErrVersionMismatch) {
		t.Fatalf("got %v, want ErrVersionMismatch", err)
	}

	// Through the CLI entry point: nonzero exit, "spec rejected" on stderr
	// (the contract the sinkd-smoke target greps for).
	var out, errw bytes.Buffer
	code := run([]string{"-connect", reject(t, wire.RejectSpecMismatch), "-steps", "5"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "spec rejected") {
		t.Fatalf("stderr: %q", errw.String())
	}
}
