package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

// suiteResult is one complete set of runs: every workload once, and once
// more traced when asked. -compare reads two of these.
type suiteResult struct {
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Smoke   bool        `json:"smoke"`
	Env     environment `json:"env"`
	Runs    []runResult `json:"runs"`
	Traced  []runResult `json:"traced,omitempty"`
}

// runSuite runs every workload in a fresh process of this same binary, so
// heap and GC state never leak from one workload into the next, then prints
// every metric by name with unit, direction and bound.
func runSuite(o options, root string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	out := filepath.Join(root, "benchmark", "out")
	suite := suiteResult{Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Env: currentEnvironment(root)}
	ok := true
	for trace := 0; trace <= o.trace; trace++ {
		for _, w := range workloads {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-daemon-args", o.daemonArgs}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Dir = root
			cmd.Stdout = io.Discard // the result file carries more than the driver's line
			cmd.Stderr = stderr
			kill, err := startChild(cmd)
			if err == nil {
				err = cmd.Wait()
				kill()
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", w.Name, trace, err)
				ok = false
				continue
			}
			res := runResult{Workload: w.Name, Trace: trace == 1}
			if err := readJSON(res.path(out), &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			if trace == 1 {
				suite.Traced = append(suite.Traced, res)
			} else {
				suite.Runs = append(suite.Runs, res)
			}
		}
	}
	printSuite(stdout, &suite)
	path := o.out
	if path == "" {
		path = filepath.Join(out, fmt.Sprintf("results-seed%d.json", o.seed))
	}
	if err := writeJSON(path, &suite); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresults written to %s\n", path)
	if !ok {
		fmt.Fprintln(stdout, "FAILED: at least one workload erred or failed a correctness check")
		return 1
	}
	return 0
}

func printSuite(w io.Writer, s *suiteResult) {
	fmt.Fprintf(w, "benchmark: seed %d, %d s per run, smoke %v — nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		s.Seed, s.Seconds, s.Smoke, s.Env.NProc, s.Env.GoMaxProcs, s.Env.GoVersion, s.Env.Commit)
	for _, r := range s.Runs {
		fmt.Fprintf(w, "\n== %s — correct %v, %d operations, %d failed; a unit is one %s\n", r.Workload, r.Correct, r.Attempted, r.Failed, r.Unit)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "   FAILED: %s\n", n)
		}
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound\tquartiles\tn")
		for _, spec := range endToEnd {
			e := r.EndToEnd[spec.Name]
			q1, q3 := quartiles(e.Samples)
			quart := "—"
			if len(e.Samples) > 1 {
				quart = fmt.Sprintf("%.6g … %.6g", q1, q3)
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%.0f %%\t%s\t%d\n", spec.Name, e.Value, spec.Unit, spec.Better, 100*spec.Bound, quart, max(len(e.Samples), 1))
		}
		for _, name := range sortedKeys(r.Detail) {
			fmt.Fprintf(tw, "  %s\t%.6g\t\t\t\t\t\n", name, r.Detail[name])
		}
		_ = tw.Flush() // a failed write to the terminal has nowhere to be reported
	}
	for _, r := range s.Traced {
		fmt.Fprintf(w, "\n== %s, traced pass — per-layer metrics (* = borrowed from a smoke-sized pass of the named workload)\n", r.Workload)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, spec := range perLayer {
			mark := ""
			if donor, ok := r.Filled[spec.Name]; ok {
				mark = "* " + donor
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", spec.Name, r.PerLayer[spec.Name], spec.Unit, spec.Better, mark)
		}
		_ = tw.Flush() // as above
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
