package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// sizes scales a workload: full size for measurement, 1/20 for -smoke and
// for the passes that fill in layers another workload never executes.
type sizes struct {
	Seconds      float64 // timed portion of one run
	MinReps      int     // repetitions never cut below this
	Setups       int     // set-ups per run (setup_s is their median)
	ReplayEpochs int     // epochs per replay repetition, k = 2
	ReplayK8     int     // epochs per replay repetition, k = 8
	PacedRate    int     // frames per second, open loop
	FloodFrames  int     // frames per tenant and repetition
	FiguresArgs  []string
	FiguresReps  int
}

// The issue sizes the replays at 40 000 / 30 000 epochs and the paced run at
// 20 s; the driver's cap (114 runs in 3420 s) leaves 10 s per run, so a
// repetition is half as long and the repetition count stays at ten.
func fullSizes(seconds float64) sizes {
	return sizes{
		Seconds: seconds, MinReps: 5, Setups: 3,
		ReplayEpochs: 20000, ReplayK8: 15000,
		PacedRate: 2000, FloodFrames: 60000,
		FiguresArgs: []string{"-test", "5000"}, FiguresReps: 5,
	}
}

func smokeSizes() sizes {
	return sizes{
		Seconds: 0.5, MinReps: 1, Setups: 1,
		ReplayEpochs: 1000, ReplayK8: 750,
		PacedRate: 2000, FloodFrames: 3000,
		FiguresArgs: []string{"-quick"}, FiguresReps: 2,
	}
}

// runCtx is what a workload needs to know about the run it is part of.
type runCtx struct {
	Workload   string
	Seed       int64
	Sizes      sizes
	Smoke      bool
	Trace      bool
	WriteTrace bool     // false for the passes that only fill in other layers
	Root       string   // repository root (the working directory)
	Bin        string   // directory of the prebuilt child binaries
	Out        string   // benchmark/out
	DaemonArgs []string // extra kensinkd flags (fault checks)
}

// setups is how many times a run sets up: several for setup_s's median, once
// for a traced run, which does not report it.
func (c *runCtx) setups() int {
	if c.Trace {
		return 1
	}
	return c.Sizes.Setups
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// measurement is what one workload run produced, before it is folded into
// the end-to-end and per-layer metric lists.
type measurement struct {
	Unit         string    // what throughput and CPU are counted in
	Setups       []float64 // seconds, one per set-up
	Throughput   []float64 // units per second, one per repetition
	LatencyP50   []float64 // ms, one per repetition
	CPUPerUnit   []float64 // µs of the process under test per unit
	PeakRSSMB    float64
	ReportedFrac float64
	Attempted    int64
	Failed       int64
	Notes        []string           // why operations failed
	Detail       map[string]float64 // the workload's own numbers, by the issue's names
	Layers       map[string]float64 // per-layer metrics (traced pass)
	Budgets      []budget
}

func newMeasurement(unit string) *measurement {
	return &measurement{Unit: unit, Detail: map[string]float64{}, Layers: map[string]float64{}}
}

// fail counts n failed operations and records why.
func (m *measurement) fail(n int64, format string, args ...any) {
	m.Failed += n
	if len(m.Notes) < 20 {
		m.Notes = append(m.Notes, fmt.Sprintf(format, args...))
	}
}

// sample is one metric of a run: the reported value (the median over
// repetitions) and the per-repetition values behind it.
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// environment is recorded with every result.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment(root string) environment {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit}
}

// runResult is the full record of one workload run, written to
// benchmark/out/result-<workload>-trace<0|1>.json and gathered by the suite.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Smoke     bool               `json:"smoke"`
	Trace     bool               `json:"trace"`
	Unit      string             `json:"unit"` // what throughput_per_s and cpu_us_per_unit count
	Env       environment        `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]sample  `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Filled    map[string]string  `json:"filled,omitempty"` // per-layer metric → donor workload
	Detail    map[string]float64 `json:"detail,omitempty"`
}

// endToEndSamples folds a measurement into the end-to-end metric list.
func (m *measurement) endToEndSamples() map[string]sample {
	pick := func(xs []float64) sample { return sample{Value: median(xs), Samples: xs} }
	out := map[string]sample{
		"setup_s":          pick(m.Setups),
		"throughput_per_s": pick(m.Throughput),
		"latency_ms_p50":   pick(m.LatencyP50),
		"cpu_us_per_unit":  pick(m.CPUPerUnit),
		"peak_rss_mb":      {Value: m.PeakRSSMB},
		"reported_frac":    {Value: m.ReportedFrac},
	}
	for _, spec := range endToEnd {
		s := out[spec.Name]
		s.Unit = spec.Unit
		out[spec.Name] = s
	}
	return out
}

// contractLine is the last line of standard output the driver parses.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract renders the result as the driver's line: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func (r *runResult) contract() (contractLine, error) {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if r.Trace {
		for _, spec := range perLayer {
			v, ok := r.PerLayer[spec.Name]
			if !ok {
				return line, fmt.Errorf("per-layer metric %s was not measured", spec.Name)
			}
			line.Metrics[spec.Name] = value{v, spec.Unit}
		}
		return line, nil
	}
	for _, spec := range endToEnd {
		s, ok := r.EndToEnd[spec.Name]
		if !ok || s.Value == 0 {
			return line, fmt.Errorf("end-to-end metric %s was not measured", spec.Name)
		}
		line.Metrics[spec.Name] = value{s.Value, spec.Unit}
	}
	return line, nil
}

func (r *runResult) path(out string) string {
	t := 0
	if r.Trace {
		t = 1
	}
	return filepath.Join(out, fmt.Sprintf("result-%s-trace%d.json", r.Workload, t))
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
