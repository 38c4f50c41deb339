package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// epoch or frame share ID; Parent names the span (same ID) that caused it.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans and counts of one traced pass in memory; write
// flushes them when the pass is over, so tracing costs the pass only the
// clock reads and an append.
type recorder struct {
	origin time.Time
	spans  []span
	counts map[string]float64
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity), counts: map[string]float64{}}
}

func (r *recorder) add(name string, id int64, parent string, start, end time.Time) {
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
}

// write emits one JSON object per span and a final line with the counts.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	err = enc.Encode(struct {
		Counts map[string]float64 `json:"counts"`
	}{r.counts})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes totals, per span name, each span's duration minus the part of
// it its child spans cover (children clipped to the parent, overlaps
// counted once).
func selfTimes(spans []span) map[string]int64 {
	type key struct {
		name string
		id   int64
	}
	type interval struct{ lo, hi int64 }
	children := map[key][]interval{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Parent, s.ID}
			children[k] = append(children[k], interval{s.Start, s.End})
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		covered := int64(0)
		kids := children[key{s.Name, s.ID}]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		edge := s.Start
		for _, c := range kids {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// budgetRow is one line of a time-budget table: a stage and its share of
// the whole, in percent.
type budgetRow struct {
	Stage string
	Share float64
}

// budget is one table of budget-<workload>.md: what one unit of work (a
// stream epoch, a core epoch, an answered frame, a figure run) spends where.
type budget struct {
	Title string
	Unit  string  // what the shares are shares of
	Total float64 // the unit's mean time, in microseconds
	Rows  []budgetRow
}

// shares turns per-stage times into percentages of total, appending the
// remainder as "unattributed" so the table sums to 100.
func shares(total float64, stages []budgetRow) []budgetRow {
	rows := make([]budgetRow, 0, len(stages)+1)
	rest := 100.0
	for _, s := range stages {
		share := 0.0
		if total > 0 {
			share = 100 * s.Share / total
		}
		share = math.Max(0, math.Min(share, rest))
		rest -= share
		rows = append(rows, budgetRow{s.Stage, share})
	}
	return append(rows, budgetRow{"unattributed", rest})
}

// writeBudgets renders the tables and refuses one whose shares do not sum
// to 100 ± 1 %.
func writeBudgets(path, workload string, tables []budget) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Time budget — %s\n", workload)
	for _, t := range tables {
		sum := 0.0
		for _, r := range t.Rows {
			sum += r.Share
		}
		if math.Abs(sum-100) > 1 {
			return fmt.Errorf("budget %q sums to %.2f %%, want 100 ± 1", t.Title, sum)
		}
		fmt.Fprintf(&b, "\n## %s\n\nOne %s takes %.3f µs on average.\n\n| stage | share |\n|---|---|\n", t.Title, t.Unit, t.Total)
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "| %s | %.1f %% |\n", r.Stage, r.Share)
		}
		fmt.Fprintf(&b, "| **sum** | %.1f %% |\n", sum)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
