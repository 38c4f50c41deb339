package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestStdoutGoldens pins stdout byte for byte against captures taken at
// b6c8851, before the experiment assembly moved into shared constructors.
func TestStdoutGoldens(t *testing.T) {
	for golden, args := range map[string]string{
		"djc_k2":    "-scheme djc -k 2 -test 200",
		"apc_lab":   "-scheme apc -dataset lab -test 200",
		"all_base5": "-scheme all -parallel 1 -test 150 -base 5",
		"djc_lossy": "-scheme djc -loss 0.2 -heartbeat 10 -test 200",
	} {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out, errw bytes.Buffer
			if code := run(strings.Fields(args), &out, &errw); code != 0 {
				t.Fatalf("exit %d: %s", code, errw.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("stdout changed:\n%s\nwant:\n%s", out.Bytes(), want)
			}
		})
	}
}

// TestBadFlags: values no default could produce are an exit-1 one-line
// error naming the flag, not a slice panic.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"-train -5", "-train -5"},
		{"-train 200 -test -150", "-test -150"},
		{"-test 0", "-test 0"},
		{"-dataset mars", "-dataset mars"},
	} {
		var out, errw bytes.Buffer
		if code := run(strings.Fields(tc.args), &out, &errw); code != 1 {
			t.Fatalf("%s: exit %d, want 1", tc.args, code)
		}
		msg := errw.String()
		if !strings.Contains(msg, tc.names) || strings.Count(msg, "\n") != 1 || out.Len() != 0 {
			t.Fatalf("%s: stderr %q, stdout %q", tc.args, msg, out.String())
		}
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("-bogus: exit %d, want 2", code)
	}
}

// TestLossyTracePinned pins the SHA-256 of the -trace-out file of a lossy
// run with heartbeats, captured before the loop kept the epoch's heartbeat
// bit and lost-value count itself: every report, drop and resync event,
// byte for byte. Float bits in the trace are pinned on amd64 only.
func TestLossyTracePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trace float bits are pinned on amd64")
	}
	path := filepath.Join(t.TempDir(), "lossy.jsonl")
	args := []string{"-dataset", "garden", "-scheme", "djc", "-test", "400", "-loss", "0.2", "-heartbeat", "10", "-trace-out", path}
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c06b19d9590c82d9f638492d55c2c7df6cf8cdee362e669a6fd58822060c4079"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("trace sha256 %s, want %s", got, want)
	}
}
