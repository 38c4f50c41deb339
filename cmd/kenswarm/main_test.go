package main

import (
	"bytes"
	"strings"
	"testing"

	"ken/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// TestSwarmSelfhostVerify is the end-to-end acceptance run in miniature:
// an in-process daemon, concurrent tenants over two specs, and the
// bit-identical + ±ε verification pass.
func TestSwarmSelfhostVerify(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-selfhost", "-tenants", "6", "-specs", "2", "-steps", "40", "-verify",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "kenswarm: verified 6 tenants") {
		t.Fatalf("verification line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "6 tenants × 40 steps over 2 specs") {
		t.Fatalf("throughput line missing:\n%s", out.String())
	}
}

func TestSwarmArgErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	// No daemon to connect to and no -selfhost: a usage error, not a hang.
	if code := run([]string{"-tenants", "2"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "-connect is required") {
		t.Fatalf("stderr: %q", errw.String())
	}
}
