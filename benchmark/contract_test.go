package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// contractFile mirrors BENCHMARK.json key for key; unknown keys fail the
// decode, so the file cannot grow keys the contract does not have.
type contractFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	var f contractFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1…60", f.RunSeconds)
	}
	// 4 + 22 × workloads runs must fit 3420 s with set-up and two builds;
	// a run is budgeted at run_seconds plus 15 s of set-up and checking.
	if runs := 4 + 22*len(f.Workloads); runs*(f.RunSeconds+15) > 3420 {
		t.Errorf("%d runs of %d+15 s do not fit 3420 s", runs, f.RunSeconds)
	}
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Errorf("workloads differ from the table in spec.go:\n%v\n%v", f.Workloads, workloads)
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d workloads, want 2…8", len(f.Workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics, table has %d (limit 16)", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Bound == nil || m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || *m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v, table has %+v", i, m, want)
			continue
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, table has %d (limit 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %+v, table has %+v", i, m, want)
		}
	}
}

// The driver's line has exactly four keys, and its metrics are exactly the
// end-to-end list untraced and exactly the per-layer list traced.
func TestContractLineRoundTrip(t *testing.T) {
	m := newMeasurement("epoch")
	m.Setups = []float64{0.3, 0.1, 0.2}
	m.Throughput = []float64{100, 300, 200}
	m.LatencyP50 = []float64{1.5}
	m.CPUPerUnit = []float64{40, 42}
	m.PeakRSSMB, m.ReportedFrac = 64, 0.5
	res := &runResult{Workload: "replay-lab-k2", Correct: true, Attempted: 10, EndToEnd: m.endToEndSamples()}
	if got := res.EndToEnd["setup_s"].Value; got != 0.2 {
		t.Errorf("setup_s = %v, want the median 0.2", got)
	}
	if got := res.EndToEnd["cpu_us_per_unit"].Value; got != 41 {
		t.Errorf("cpu_us_per_unit = %v, want 41", got)
	}
	check := func(res *runResult, specs []metricSpec) {
		t.Helper()
		line, err := res.contract()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 4 || back["correct"] == nil || back["attempted"] == nil || back["failed"] == nil || back["metrics"] == nil {
			t.Fatalf("result line has keys %v", back)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(back["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(specs) {
			t.Errorf("%d metrics on the line, want %d", len(metrics), len(specs))
		}
		for _, spec := range specs {
			got := metrics[spec.Name]
			if len(got) != 2 || got["unit"] != spec.Unit {
				t.Errorf("metric %s on the line is %v, want a value and unit %q", spec.Name, got, spec.Unit)
			}
			if _, ok := got["value"].(float64); !ok {
				t.Errorf("metric %s has no numeric value", spec.Name)
			}
		}
	}
	check(res, endToEnd)

	// An end-to-end metric that reads zero was not measured.
	m.LatencyP50 = nil
	broken := &runResult{EndToEnd: m.endToEndSamples()}
	if _, err := broken.contract(); err == nil {
		t.Error("a zero end-to-end metric went out on the result line")
	}

	traced := &runResult{Trace: true, Correct: true, Attempted: 1, PerLayer: map[string]float64{}}
	for _, spec := range perLayer {
		traced.PerLayer[spec.Name] = 1
	}
	check(traced, perLayer)
	delete(traced.PerLayer, "sinkd.sheds")
	if _, err := traced.contract(); err == nil {
		t.Error("a traced result missing a per-layer metric went out on the result line")
	}
}

func TestFillOrderCoversEveryLayer(t *testing.T) {
	for _, donor := range fillOrder {
		if _, ok := runners[donor]; !ok {
			t.Errorf("fill donor %s has no runner", donor)
		}
	}
	if figureMetric(7) != "bench.fig07_s" || figureMetric(17) != "bench.fig17_s" {
		t.Errorf("figure metric names: %s, %s", figureMetric(7), figureMetric(17))
	}
}
