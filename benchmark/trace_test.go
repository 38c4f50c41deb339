package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Epoch 0: 100 ns, children cover 10–40 and 50–90 → 30 ns of its own.
		{Name: "stream.epoch", ID: 0, Start: 0, End: 100},
		{Name: "stream.collect", ID: 0, Parent: "stream.epoch", Start: 10, End: 40},
		{Name: "stream.apply", ID: 0, Parent: "stream.epoch", Start: 50, End: 90},
		// Epoch 1: overlapping children count once, a child is clipped to
		// its parent, and another epoch's child is not this one's.
		{Name: "stream.epoch", ID: 1, Start: 200, End: 300},
		{Name: "stream.collect", ID: 1, Parent: "stream.epoch", Start: 210, End: 260},
		{Name: "stream.apply", ID: 1, Parent: "stream.epoch", Start: 240, End: 320},
		// A grandchild reduces its parent's self time, not the epoch's.
		{Name: "wire.encode", ID: 0, Parent: "stream.collect", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"stream.epoch":   30 + 10,       // epoch 1: 100 − (210…300 covered)
		"stream.collect": (30 - 5) + 50, // epoch 0 loses the grandchild's 5
		"stream.apply":   40 + 80,
		"wire.encode":    5,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestSharesSumToHundred(t *testing.T) {
	rows := shares(200, []budgetRow{{"a", 50}, {"b", 30}})
	if len(rows) != 3 || rows[0].Share != 25 || rows[1].Share != 15 || rows[2].Stage != "unattributed" || rows[2].Share != 60 {
		t.Fatalf("shares = %+v", rows)
	}
	// Estimates that overshoot are capped; the table still sums to 100.
	rows = shares(100, []budgetRow{{"measured", 70}, {"estimate", 50}})
	sum := 0.0
	for _, r := range rows {
		sum += r.Share
	}
	if math.Abs(sum-100) > 1e-9 || rows[1].Share != 30 || rows[2].Share != 0 {
		t.Fatalf("overshooting shares = %+v (sum %v)", rows, sum)
	}
}

func TestWriteBudgetsRefusesBadSum(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "budget.md")
	good := []budget{{Title: "epoch", Unit: "epoch", Total: 10, Rows: shares(10, []budgetRow{{"predict", 4}})}}
	if err := writeBudgets(path, "w", good); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| predict | 40.0 % |", "| unattributed | 60.0 % |", "| **sum** | 100.0 % |"} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("budget lacks %q:\n%s", want, buf)
		}
	}
	bad := []budget{{Title: "epoch", Rows: []budgetRow{{"predict", 40}, {"apply", 40}}}}
	if err := writeBudgets(path, "w", bad); err == nil {
		t.Error("a budget summing to 80 % was accepted")
	}
}

func TestRecorderWritesSpansThenCounts(t *testing.T) {
	rec := newRecorder(2)
	rec.add("core.step", 7, "", rec.origin, rec.origin.Add(1500))
	rec.counts["epochs"] = 1
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"core.step","id":7,"start_ns":0,"end_ns":1500}` + "\n" + `{"counts":{"epochs":1}}` + "\n"
	if string(buf) != want {
		t.Errorf("trace file:\n%s\nwant:\n%s", buf, want)
	}
}
