package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStdoutGoldens pins stdout byte for byte against captures taken at
// 13f7aa4, before main became run(args, stdout, stderr).
func TestStdoutGoldens(t *testing.T) {
	for golden, args := range map[string]string{
		"summary_garden":      "-dataset garden -seed 3 -steps 96 -summary",
		"diagnose_lab":        "-dataset lab -seed 3 -steps 96 -diagnose",
		"csv_garden_humidity": "-dataset garden -attr humidity -seed 3 -steps 4",
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

// TestBadFlags: a value no run can satisfy is one `kentrace: …` line naming
// the flag and nothing on stdout — in particular -diagnose on a series too
// short for its lag-24 statistics, which used to print 0.000 for each.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args  string
		code  int
		names string
	}{
		{"-steps 0", 1, "-steps 0"},
		{"-steps -5", 1, "-steps -5"},
		{"-attr pressure", 2, "-attr pressure"},
		{"-dataset mars", 2, "-dataset mars"},
		{"-steps 1 -diagnose", 1, "-steps 1: -diagnose needs at least 48"},
		{"-steps 47 -diagnose", 1, "-steps 47: -diagnose needs at least 48"},
		{"-summary -diagnose", 2, "-summary and -diagnose"},
	} {
		var out, errw bytes.Buffer
		if code := run(strings.Fields(tc.args), &out, &errw); code != tc.code {
			t.Fatalf("%s: exit %d, want %d", tc.args, code, tc.code)
		}
		msg := errw.String()
		if !strings.HasPrefix(msg, "kentrace: ") || !strings.Contains(msg, tc.names) ||
			strings.Count(msg, "\n") != 1 || out.Len() != 0 {
			t.Fatalf("%s: stderr %q, stdout %q", tc.args, msg, out.String())
		}
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("-bogus: exit %d, want 2", code)
	}
	// The shortest series -diagnose accepts is the one its message names.
	if code := run(strings.Fields("-steps 48 -diagnose"), &out, &errw); code != 0 {
		t.Fatalf("-steps 48 -diagnose: exit %d: %s", code, errw.String())
	}
}
