package main

import "testing"

// Only the per-figure wall-time lines differ between two runs of kenbench;
// the hash must not see them, and must see everything else.
func TestContentHashIgnoresTimingLines(t *testing.T) {
	a := "Figure 9\n row 1\n(figure 9 regenerated in 126ms)\nFigure 10\n(figure 10 regenerated in 1.396s)\n"
	b := "Figure 9\n row 1\n(figure 9 regenerated in 98ms)\nFigure 10\n(figure 10 regenerated in 2.1s)\n"
	if contentHash([]byte(a)) != contentHash([]byte(b)) {
		t.Error("two runs that differ only in timing lines hash differently")
	}
	c := "Figure 9\n row 2\n(figure 9 regenerated in 126ms)\nFigure 10\n(figure 10 regenerated in 1.396s)\n"
	if contentHash([]byte(a)) == contentHash([]byte(c)) {
		t.Error("a changed table row did not change the hash")
	}
	d := "Figure 9\n row 1 (figure 9 regenerated in 126ms)\nFigure 10\n"
	if contentHash([]byte(d)) == contentHash([]byte("Figure 9\nFigure 10\n")) {
		t.Error("a timing phrase inside another line was dropped")
	}
}
