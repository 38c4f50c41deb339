package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// timing is the one line of a figure's output that changes run to run.
var timing = regexp.MustCompile(`(?m)^\(figure (\d+) regenerated in [^)]+\)$`)

// TestStdoutGolden pins stdout byte for byte, but for the timing line,
// against a capture of -fig 7 -quick taken before kenbench took the
// run(args, stdout, stderr) shape: the benchmark's figures workload hashes
// this output.
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig7_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-fig", "7", "-quick"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if got := timing.ReplaceAll(out.Bytes(), []byte("(figure $1 regenerated in TIME)")); !bytes.Equal(got, want) {
		t.Fatalf("stdout changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestBadFlags: a missing or unknown figure is an exit-2 usage error, and a
// snapshot that cannot be written is an exit-1 error naming the flag.
func TestBadFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")
	for _, tc := range []struct {
		args  []string
		code  int
		names string
	}{
		{nil, 2, "pass -fig N or -all"},
		{[]string{"-quick"}, 2, "pass -fig N or -all"},
		{[]string{"-fig", "99"}, 2, "7-17"},
		{[]string{"-fig", "6", "-quick"}, 2, "7-17"},
		{[]string{"-bogus"}, 2, "-bogus"},
		{[]string{"-fig", "7", "-quick", "-metrics-out", missing}, 1, "-metrics-out " + missing},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != tc.code {
			t.Fatalf("%q: exit %d, want %d (stderr %q)", tc.args, code, tc.code, errw.String())
		}
		if !strings.Contains(errw.String(), tc.names) {
			t.Fatalf("%q: stderr %q does not name %q", tc.args, errw.String(), tc.names)
		}
	}
}
