// Package events turns Ken's bounded-loss answers into guaranteed event
// detection (§1.1: "approximate data collection and event detection become
// isomorphic").
//
// The sink only sees estimates, but every estimate is within ±ε of the
// truth. A threshold detector exploits that bound: comparing the estimate
// against threshold−ε can never miss a true crossing (no false negatives),
// while comparing against threshold+ε never fires spuriously (no false
// positives). Between the two lies an uncertainty band of width 2ε where
// the detector reports a *possible* event — exactly the residual ambiguity
// the user accepted when loosening ε.
package events

import (
	"fmt"
)

// Verdict classifies one estimate against one threshold.
type Verdict int

const (
	// None: the truth is certainly below the threshold.
	None Verdict = iota
	// Possible: the estimate lies within ε of the threshold; the truth may
	// be on either side.
	Possible
	// Certain: the truth is certainly above the threshold.
	Certain
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case None:
		return "none"
	case Possible:
		return "possible"
	case Certain:
		return "certain"
	default:
		return "verdict(?)"
	}
}

// Threshold watches one attribute for upward crossings of a level.
type Threshold struct {
	Attr  int
	Level float64
	// Eps is the collection error bound of the attribute.
	Eps float64
}

// Classify returns the verdict for a sink estimate.
func (t Threshold) Classify(estimate float64) Verdict {
	switch {
	case estimate >= t.Level+t.Eps:
		return Certain
	case estimate > t.Level-t.Eps:
		return Possible
	default:
		return None
	}
}

// Detector evaluates a set of thresholds against sink estimate vectors.
type Detector struct {
	thresholds []Threshold
	n          int
}

// Alert is one fired threshold at one step.
type Alert struct {
	Step    int
	Attr    int
	Level   float64
	Verdict Verdict
	// Estimate is the sink value that fired the alert.
	Estimate float64
}

// NewDetector validates the thresholds against the attribute count.
func NewDetector(n int, thresholds []Threshold) (*Detector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("events: attribute count %d", n)
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("events: no thresholds")
	}
	for i, th := range thresholds {
		if th.Attr < 0 || th.Attr >= n {
			return nil, fmt.Errorf("events: threshold %d attribute %d out of range %d", i, th.Attr, n)
		}
		if th.Eps <= 0 {
			return nil, fmt.Errorf("events: threshold %d epsilon %v must be positive", i, th.Eps)
		}
	}
	return &Detector{thresholds: append([]Threshold(nil), thresholds...), n: n}, nil
}

// Scan classifies every step's estimates, returning all Possible/Certain
// alerts in step order.
func (d *Detector) Scan(estimates [][]float64) ([]Alert, error) {
	var out []Alert
	for step, est := range estimates {
		if len(est) != d.n {
			return nil, fmt.Errorf("events: step %d has %d estimates, want %d", step, len(est), d.n)
		}
		for _, th := range d.thresholds {
			v := th.Classify(est[th.Attr])
			if v == None {
				continue
			}
			out = append(out, Alert{
				Step: step, Attr: th.Attr, Level: th.Level,
				Verdict: v, Estimate: est[th.Attr],
			})
		}
	}
	return out, nil
}

// Audit verifies the detector's guarantees against ground truth: every true
// crossing must have produced at least a Possible alert (no false
// negatives), and every Certain alert must correspond to a true crossing
// (no certain false positives). It returns counts for reporting and an
// error naming the first violated guarantee.
func (d *Detector) Audit(estimates, truth [][]float64) (missed, spurious int, err error) {
	alerts, err := d.Scan(estimates)
	if err != nil {
		return 0, 0, err
	}
	if len(truth) != len(estimates) {
		return 0, 0, fmt.Errorf("events: %d truth rows for %d estimate rows", len(truth), len(estimates))
	}
	type key struct{ step, attr int }
	fired := map[key]Verdict{}
	for _, a := range alerts {
		k := key{a.Step, a.Attr}
		if a.Verdict > fired[k] {
			fired[k] = a.Verdict
		}
	}
	for step, row := range truth {
		if len(row) != d.n {
			return 0, 0, fmt.Errorf("events: truth step %d has %d values, want %d", step, len(row), d.n)
		}
		for _, th := range d.thresholds {
			truthAbove := row[th.Attr] >= th.Level
			v := fired[key{step, th.Attr}]
			if truthAbove && v == None {
				missed++
			}
			if !truthAbove && v == Certain {
				spurious++
			}
		}
	}
	if missed > 0 {
		return missed, spurious, fmt.Errorf("events: %d true crossings produced no alert — ε guarantee broken upstream", missed)
	}
	if spurious > 0 {
		return missed, spurious, fmt.Errorf("events: %d certain alerts without true crossings", spurious)
	}
	return 0, 0, nil
}
