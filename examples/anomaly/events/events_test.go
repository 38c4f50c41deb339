package events

import (
	"context"
	"strings"
	"testing"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/trace"
)

func TestVerdictString(t *testing.T) {
	if None.String() != "none" || Possible.String() != "possible" || Certain.String() != "certain" {
		t.Fatal("verdict names wrong")
	}
	if !strings.Contains(Verdict(9).String(), "?") {
		t.Fatal("unknown verdict should be marked")
	}
}

func TestThresholdClassify(t *testing.T) {
	th := Threshold{Attr: 0, Level: 30, Eps: 0.5}
	cases := []struct {
		est  float64
		want Verdict
	}{
		{29.4, None},
		{29.5, None}, // exactly level−ε: truth could be at most 30.0, not above
		{29.6, Possible},
		{30.0, Possible},
		{30.4, Possible},
		{30.5, Certain},
		{31.0, Certain},
	}
	for _, c := range cases {
		if got := th.Classify(c.est); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.est, got, c.want)
		}
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(0, []Threshold{{Attr: 0, Level: 1, Eps: 1}}); err == nil {
		t.Fatal("expected error for zero attributes")
	}
	if _, err := NewDetector(2, nil); err == nil {
		t.Fatal("expected error for no thresholds")
	}
	if _, err := NewDetector(2, []Threshold{{Attr: 5, Level: 1, Eps: 1}}); err == nil {
		t.Fatal("expected error for bad attribute")
	}
	if _, err := NewDetector(2, []Threshold{{Attr: 0, Level: 1, Eps: 0}}); err == nil {
		t.Fatal("expected error for zero epsilon")
	}
}

func TestScanAndAuditSynthetic(t *testing.T) {
	d, err := NewDetector(1, []Threshold{{Attr: 0, Level: 10, Eps: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	estimates := [][]float64{{9.0}, {9.8}, {10.6}, {9.0}}
	alerts, err := d.Scan(estimates)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 2 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].Verdict != Possible || alerts[1].Verdict != Certain {
		t.Fatalf("verdicts = %v, %v", alerts[0].Verdict, alerts[1].Verdict)
	}
	// Truth consistent with ±0.5 estimates: audit passes.
	truth := [][]float64{{9.2}, {10.1}, {10.4}, {9.3}}
	if _, _, err := d.Audit(estimates, truth); err != nil {
		t.Fatal(err)
	}
	// A truth crossing whose estimate stayed at None must be flagged.
	badTruth := [][]float64{{10.5}, {10.1}, {10.4}, {9.3}}
	if missed, _, err := d.Audit(estimates, badTruth); err == nil || missed != 1 {
		t.Fatalf("expected missed-crossing audit failure, got missed=%d err=%v", missed, err)
	}
	// A Certain alert with truth below the level must be flagged.
	spuriousTruth := [][]float64{{9.2}, {10.1}, {9.9}, {9.3}}
	if _, spurious, err := d.Audit(estimates, spuriousTruth); err == nil || spurious != 1 {
		t.Fatalf("expected spurious-certain audit failure, got spurious=%d err=%v", spurious, err)
	}
}

func TestScanValidation(t *testing.T) {
	d, err := NewDetector(2, []Threshold{{Attr: 0, Level: 10, Eps: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Scan([][]float64{{1}}); err == nil {
		t.Fatal("expected error for estimate dim mismatch")
	}
	if _, _, err := d.Audit([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("expected error for truth length mismatch")
	}
}

// TestEndToEndNoMissedEvents: inject heat spikes into a lab trace, collect
// with Ken, and verify the detector's no-false-negative guarantee over the
// sink's estimates.
func TestEndToEndNoMissedEvents(t *testing.T) {
	tr, err := trace.GenerateLab(9, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Several fire-like spikes on different nodes.
	for _, spec := range []struct{ node, at int }{{3, 150}, {20, 200}, {40, 260}} {
		if err := tr.InjectAnomaly(trace.Temperature, spec.node, 100+spec.at, 100+spec.at+2, 15); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	train, test := rows[:100], rows[100:]
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	p := &cliques.Partition{}
	for i := 0; i < n; i++ {
		p.Cliques = append(p.Cliques, cliques.Clique{Members: []int{i}, Root: i})
	}
	s, err := core.NewKen(core.KenConfig{
		Partition: p, Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), s, test, core.RunOptions{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}

	// Fire alarms at 33 °C on every node.
	ths := make([]Threshold, n)
	for i := range ths {
		ths[i] = Threshold{Attr: i, Level: 33, Eps: 0.5}
	}
	det, err := NewDetector(n, ths)
	if err != nil {
		t.Fatal(err)
	}
	missed, spurious, err := det.Audit(res.Estimates, test)
	if err != nil {
		t.Fatalf("guarantee audit failed: %v (missed %d, spurious %d)", err, missed, spurious)
	}
	// And the spikes did actually fire alerts.
	alerts, err := det.Scan(res.Estimates)
	if err != nil {
		t.Fatal(err)
	}
	certain := 0
	for _, a := range alerts {
		if a.Verdict == Certain {
			certain++
		}
	}
	if certain == 0 {
		t.Fatal("injected 15-degree spikes produced no certain alerts")
	}
}
