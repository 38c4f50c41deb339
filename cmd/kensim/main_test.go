package main

import (
	"bytes"
	"os"
	"path/filepath"
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
