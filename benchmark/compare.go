package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// verdict of one workload × metric row of a comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a metric's value in B against A. worsening is the share
// of A's median by which B is worse (negative when it is better); a row
// whose run-to-run quartile spread exceeds the bound cannot be told apart
// from noise and is unresolved.
func judge(spec metricSpec, a, b sample, bound float64) (worsening float64, v string) {
	if a.Value == 0 {
		return 0, unresolved
	}
	worsening = (b.Value - a.Value) / math.Abs(a.Value)
	if spec.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case math.Max(spread(a.Samples), spread(b.Samples)) > bound && bound > 0:
		return worsening, unresolved
	case worsening > bound:
		return worsening, worse
	case worsening < -bound:
		return worsening, better
	default:
		return worsening, same
	}
}

// compareFiles prints one row per workload × end-to-end metric of two
// result files and exits non-zero when any row is worse or B failed a
// larger share of its operations.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSuite(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readSuite(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	bad := compareSuites(a, b, stdout)
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d rows worse\n", bad)
		return 1
	}
	return 0
}

// readSuite reads a set of runs (results-seed<S>.json) or, for comparing
// one workload, a single run's result file.
func readSuite(path string) (*suiteResult, error) {
	var s suiteResult
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	if len(s.Runs) > 0 {
		return &s, nil
	}
	var r runResult
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	if r.Workload == "" || r.Trace {
		return nil, fmt.Errorf("%s holds no untraced run", path)
	}
	return &suiteResult{Seed: r.Seed, Seconds: int(r.Seconds), Smoke: r.Smoke, Env: r.Env, Runs: []runResult{r}}, nil
}

func compareSuites(a, b *suiteResult, w io.Writer) (bad int) {
	fmt.Fprintf(w, "A: seed %d, commit %s    B: seed %d, commit %s    ratio = B ÷ A\n", a.Seed, a.Env.Commit, b.Seed, b.Env.Commit)
	byName := map[string]runResult{}
	for _, r := range b.Runs {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 … q3]\tB median [q1 … q3]\tratio\tworse by\tbound\tverdict")
	for _, ra := range a.Runs {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, spec := range endToEnd {
			sa, sb := ra.EndToEnd[spec.Name], rb.EndToEnd[spec.Name]
			bound := spec.Bound
			if spec.Name == "reported_frac" && a.Seed == b.Seed && a.Smoke == b.Smoke && a.Seconds == b.Seconds {
				bound = 0 // an exact count: the same inputs must report the same share
			}
			worsening, v := judge(spec, sa, sb, bound)
			if v == worse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4f (÷ %.6g)\t%+.1f %%\t%.0f %%\t%s\n", ra.Workload, spec.Name,
				cell(sa), cell(sb), sb.Value/sa.Value, sa.Value, 100*worsening, 100*bound, v)
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		v := same
		if fb > fa {
			v = worse
			bad++
		} else if fb < fa {
			v = better
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g (%d of %d)\t%.6g (%d of %d)\t\t\t0\t%s\n", ra.Workload,
			fa, ra.Failed, ra.Attempted, fb, rb.Failed, rb.Attempted, v)
	}
	_ = tw.Flush() // a failed write to the terminal has nowhere to be reported
	return bad
}

func cell(s sample) string {
	if len(s.Samples) < 2 {
		return fmt.Sprintf("%.6g", s.Value)
	}
	q1, q3 := quartiles(s.Samples)
	return fmt.Sprintf("%.6g [%.6g … %.6g]", s.Value, q1, q3)
}
