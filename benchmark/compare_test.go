package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_ms_p50", Better: "lower"}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher"}
	tight := func(v float64) sample { return sample{Value: v, Samples: []float64{v * 0.99, v, v * 1.01}} }
	noisy := func(v float64) sample { return sample{Value: v, Samples: []float64{v * 0.5, v, v * 1.5, v * 1.6}} }
	for _, tc := range []struct {
		name  string
		spec  metricSpec
		a, b  sample
		bound float64
		want  string
	}{
		{"slower latency beyond the bound", lower, tight(1), tight(1.2), 0.1, worse},
		{"slower latency inside the bound", lower, tight(1), tight(1.05), 0.1, same},
		{"faster latency", lower, tight(1), tight(0.8), 0.1, better},
		{"lower throughput", higher, tight(100), tight(80), 0.1, worse},
		{"higher throughput", higher, tight(100), tight(125), 0.1, better},
		{"spread wider than the bound", lower, noisy(1), tight(1.3), 0.1, unresolved},
		{"exact count, unchanged", lower, sample{Value: 0.5}, sample{Value: 0.5}, 0, same},
		{"exact count, more reported", lower, sample{Value: 0.5}, sample{Value: 0.5001}, 0, worse},
		{"nothing to compare against", lower, sample{}, tight(1), 0.1, unresolved},
	} {
		if _, got := judge(tc.spec, tc.a, tc.b, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func suiteWith(latency float64, failed int64) *suiteResult {
	m := newMeasurement("frame")
	m.Setups = []float64{1}
	m.Throughput = []float64{2000, 2000.1, 1999.9}
	m.LatencyP50 = []float64{latency, latency * 1.01, latency * 0.99}
	m.CPUPerUnit = []float64{300}
	m.PeakRSSMB, m.ReportedFrac = 15, 0.5
	return &suiteResult{Seed: 1, Seconds: 10, Runs: []runResult{{
		Workload: "ingest-paced", Attempted: 1000, Failed: failed, EndToEnd: m.endToEndSamples(),
	}}}
}

func TestCompareSuitesFlagsWorseRowsAndFailures(t *testing.T) {
	var out strings.Builder
	if bad := compareSuites(suiteWith(0.4, 0), suiteWith(0.41, 0), &out); bad != 0 {
		t.Errorf("a 2.5 %% latency change counted %d rows worse:\n%s", bad, out.String())
	}
	out.Reset()
	bad := compareSuites(suiteWith(0.4, 0), suiteWith(5, 120), &out)
	if bad != 2 {
		t.Errorf("a 12× latency and 120 failed operations counted %d rows worse, want 2:\n%s", bad, out.String())
	}
	for _, want := range []string{"latency_ms_p50", "failed_frac", "worse", "ingest-paced", "0.12 (120 of 1000)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
