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
		"ken_chain":    "-program ken -topology chain -steps 150",
		"tinydb_chain": "-program tinydb -topology chain -steps 150",
		"avg_chain":    "-program avg -topology chain -steps 150",
		"ken_star_arq": "-program ken -topology star -loss 0.2 -arq-retries 3 -heartbeat 10 -failure-alpha 0.01 -steps 150",
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
// error naming the flag — not an index panic, not a NaN% report.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"-k 0", "-k 0"},
		{"-k -1", "-k -1"},
		{"-steps 0", "-steps 0"},
		{"-train -5", "-train -5"},
		{"-topology ring", "ring"},
		{"-program gossip", "gossip"},
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

// TestARQBatteryTracePinned pins the SHA-256 of the -trace-out file of an
// ARQ run with heartbeats, failure detection and batteries small enough to
// kill 9 of 11 nodes, captured before the network published its epoch
// ledger once per epoch: every hop, retransmission, ack, node failure and
// epoch_end payload, byte for byte. Float bits in the trace are pinned on
// amd64 only.
func TestARQBatteryTracePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trace float bits are pinned on amd64")
	}
	path := filepath.Join(t.TempDir(), "arq.jsonl")
	args := strings.Fields("-program ken -topology star -loss 0.2 -arq-retries 3 -heartbeat 10 -failure-alpha 0.01 -steps 150 -battery 0.02 -trace-out " + path)
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "alive at end   2/11") {
		t.Fatalf("the battery no longer kills 9 nodes:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "2a910ccf92f6e6bc2ed79b2470a8e7f1f8a8753c92cdea9de67fdb8e9a6569f8"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("trace sha256 %s, want %s", got, want)
	}
}
