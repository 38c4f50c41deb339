package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The figures workload is the repository's other user: regenerating the
// paper's figures with kenbench, run as a child and judged by its output.

// timingLine matches the one line per figure whose content is a wall time;
// every other byte of kenbench's output is the same on every run.
var timingLine = regexp.MustCompile(`^\(figure \d+ regenerated in [^)]+\)$`)

// figuresRun is one kenbench child's outcome.
type figuresRun struct {
	Wall      time.Duration         // exec → exit
	CPU       float64               // user + system seconds
	RSSMB     float64               // peak resident set
	Hash      string                // SHA-256 of stdout without the timing lines
	PerFigure map[int]time.Duration // kenbench's own per-figure gauges, from -metrics-out
	Reported  float64               // values reported ÷ values collected, from -metrics-out
}

// contentHash hashes kenbench's stdout without its timing lines.
func contentHash(stdout []byte) string {
	h := sha256.New()
	for _, line := range bytes.SplitAfter(stdout, []byte("\n")) {
		if !timingLine.Match(bytes.TrimRight(line, "\n")) {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runKenbench runs one kenbench child to completion.
func runKenbench(c *runCtx, dir string, args ...string) (*figuresRun, error) {
	metrics := filepath.Join(dir, "metrics.json")
	argv := append(append([]string{}, args...), "-seed", strconv.FormatInt(c.Seed, 10),
		"-log-level", "warn", "-metrics-out", metrics)
	cmd := exec.Command(filepath.Join(c.Bin, "kenbench"), argv...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	kill, err := startChild(cmd)
	if err != nil {
		return nil, err
	}
	err = cmd.Wait()
	wall := time.Since(start)
	kill() // reaped already; drops the exit hook
	if err != nil {
		return nil, fmt.Errorf("kenbench %s: %w", strings.Join(args, " "), err)
	}
	run := &figuresRun{Wall: wall}
	run.CPU, run.RSSMB = childUsage(cmd.ProcessState)
	run.Hash = contentHash(stdout.Bytes())
	var snap struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := readJSON(metrics, &snap); err != nil {
		return nil, err
	}
	run.PerFigure = map[int]time.Duration{}
	for _, n := range figureNumbers {
		if sec, ok := snap.Gauges[fmt.Sprintf("kenbench_figure_%d_seconds", n)]; ok {
			run.PerFigure[n] = time.Duration(sec * float64(time.Second))
		}
	}
	reported, suppressed := snap.Counters["ken_values_reported_total"], snap.Counters["ken_values_suppressed_total"]
	if reported+suppressed > 0 {
		run.Reported = reported / (reported + suppressed)
	}
	return run, nil
}

// goldenHash reads the committed hash for this seed and size, if there is
// one: seed 1 is pinned across commits, other seeds only within a run.
func goldenHash(c *runCtx) string {
	if c.Seed != 1 {
		return ""
	}
	name := "figures-seed1.sha256"
	if c.Smoke {
		name = "figures-seed1-smoke.sha256"
	}
	buf, err := os.ReadFile(filepath.Join(c.Root, "benchmark", "golden", name))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(buf))
}

func runFigures(c *runCtx) (*measurement, error) {
	m := newMeasurement("figure")
	dir, removeDir, err := tempDir(c.Out)
	if err != nil {
		return nil, err
	}
	defer removeDir()
	all := append([]string{"-all", "-parallel", "2"}, c.Sizes.FiguresArgs...)

	// Set-up: a quick-configuration pass proves the binary runs every
	// figure and pulls it into the page cache before the clock starts.
	for i := 0; i < c.setups(); i++ {
		start := time.Now()
		if _, err := runKenbench(c, dir, "-all", "-parallel", "2", "-quick"); err != nil {
			return nil, err
		}
		m.Setups = append(m.Setups, time.Since(start).Seconds())
	}

	reps := c.Sizes.FiguresReps
	if c.Trace {
		reps = (reps + 1) / 2
	}
	want := goldenHash(c)
	var walls, rss []float64
	for rep := 0; rep < reps; rep++ {
		run, err := runKenbench(c, dir, all...)
		if err != nil {
			return nil, err
		}
		m.Attempted++
		if want == "" {
			want = run.Hash // other seeds: every repetition must match the first
		}
		if run.Hash != want {
			m.fail(1, "repetition %d: filtered stdout hashes to %s, want %s", rep, run.Hash, want)
		}
		if len(run.PerFigure) != len(figureNumbers) {
			m.fail(1, "repetition %d: %d figures reported their time, want %d", rep, len(run.PerFigure), len(figureNumbers))
			continue
		}
		var perMS []float64
		for _, n := range figureNumbers {
			perMS = append(perMS, float64(run.PerFigure[n])/1e6)
		}
		units := float64(len(figureNumbers))
		walls = append(walls, run.Wall.Seconds())
		m.Throughput = append(m.Throughput, units/run.Wall.Seconds())
		m.LatencyP50 = append(m.LatencyP50, percentile(sorted(perMS), 0.5))
		m.CPUPerUnit = append(m.CPUPerUnit, run.CPU*1e6/units)
		rss = append(rss, run.RSSMB)
		m.ReportedFrac = run.Reported
	}
	// Each repetition is a process of its own; the median of their peaks is
	// steadier than the largest, which one late GC cycle decides.
	m.PeakRSSMB = median(rss)
	m.Detail["figures_s"] = median(walls)
	m.Detail["repetitions"] = float64(reps)

	if c.Trace {
		if err := figuresTraced(c, dir, all, median(walls), m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// figuresTraced runs each figure as a child of its own and the whole set on
// one worker: per-figure cost, and what the second worker buys.
func figuresTraced(c *runCtx, dir string, all []string, untracedWall float64, m *measurement) error {
	rec := newRecorder(len(figureNumbers) + 2)
	var sumFigures float64
	var rows []budgetRow
	for _, n := range figureNumbers {
		from := time.Now()
		args := append([]string{"-fig", strconv.Itoa(n), "-parallel", "2"}, c.Sizes.FiguresArgs...)
		run, err := runKenbench(c, dir, args...)
		if err != nil {
			return err
		}
		rec.add("bench.figure", int64(n), "", from, from.Add(run.Wall))
		m.Layers[figureMetric(n)] = run.Wall.Seconds()
		sumFigures += run.Wall.Seconds()
		rows = append(rows, budgetRow{fmt.Sprintf("figure %d", n), run.Wall.Seconds()})
	}
	from := time.Now()
	sequential, err := runKenbench(c, dir, append([]string{"-all", "-parallel", "1"}, c.Sizes.FiguresArgs...)...)
	if err != nil {
		return err
	}
	rec.add("bench.all_sequential", 0, "", from, from.Add(sequential.Wall))
	m.Attempted++
	if want := goldenHash(c); want != "" && sequential.Hash != want {
		m.fail(1, "-parallel 1 output hashes to %s, want %s", sequential.Hash, want)
	}
	m.Layers["engine.parallel_speedup"] = sequential.Wall.Seconds() / untracedWall
	// One child per figure shares no artifact cache across figures and pays
	// process start eleven times; that difference is the cost of tracing.
	m.Layers["trace.overhead_frac"] = sumFigures/untracedWall - 1
	rec.counts["figures"] = float64(len(figureNumbers))
	rec.counts["all_parallel2_s"] = untracedWall
	rec.counts["all_parallel1_s"] = sequential.Wall.Seconds()
	if c.WriteTrace {
		if err := rec.write(c.tracePath()); err != nil {
			return err
		}
	}
	for i := range rows {
		rows[i].Share = 100 * rows[i].Share / sumFigures
	}
	m.Budgets = []budget{{Title: "figure set, one child per figure", Unit: "figure set", Total: sumFigures * 1e6, Rows: rows}}
	return nil
}
