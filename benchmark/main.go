// Command benchmark is the repository's benchmark: five workloads, six
// end-to-end metrics every workload reports, and a traced pass that yields
// the per-layer metrics and a time budget. README.md in this directory
// documents every workload and metric; BENCHMARK.json at the repository
// root is the same contract in the driver's form.
//
//	go run ./benchmark -seed 1                      # all workloads, end-to-end
//	go run ./benchmark -seed 1 -trace 1             # … plus the traced pass
//	go run ./benchmark -smoke                       # 1/20 size, every check
//	go run ./benchmark -workload ingest-paced -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -compare A.json B.json
//
// Layers are measured from outside: the benchmark times calls into their
// public functions, runs kensinkd and kenbench as children and talks to the
// /v1 HTTP API. It reads /proc and therefore runs on Linux.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	smoke      bool
	compare    bool
	out        string
	daemonArgs string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (empty = all five, each in a fresh process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: drives deploy.Params.Seed and kenbench -seed")
	fs.IntVar(&o.seconds, "seconds", 10, "timed portion of a run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, trace-<workload>.jsonl and budget-<workload>.md under benchmark/out")
	fs.BoolVar(&o.smoke, "smoke", false, "run at 1/20 size with one repetition; every correctness check still runs")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: benchmark -compare A.json B.json")
	fs.StringVar(&o.out, "out", "", "all-workloads mode: write the combined results here (default benchmark/out/results-seed<seed>.json)")
	fs.StringVar(&o.daemonArgs, "daemon-args", "", "extra kensinkd flags for the ingest workloads, space separated (fault checks, e.g. \"-apply-delay 5ms\")")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "kensinkd")); err != nil {
		fmt.Fprintf(stderr, "benchmark: run from the repository root (no cmd/kensinkd under %s)\n", root)
		return 1
	}
	trapSignals()
	defer runExitHooks()
	if o.workload == "" {
		return runSuite(o, root, stdout, stderr)
	}
	return runOne(o, root, stdout, stderr)
}

// runners maps a workload name to the function that runs it.
var runners = map[string]func(*runCtx) (*measurement, error){
	"replay-lab-k2": func(c *runCtx) (*measurement, error) { return runReplay(c, 2) },
	"replay-lab-k8": func(c *runCtx) (*measurement, error) { return runReplay(c, 8) },
	"ingest-paced":  runIngestPaced,
	"ingest-flood":  runIngestFlood,
	"figures":       runFigures,
}

// runOne runs a single workload in this process and prints the driver's
// line as the last line of standard output.
func runOne(o options, root string, stdout, stderr io.Writer) int {
	runner, ok := runners[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	line, err := measure(o, root, runner)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure builds the children, runs the workload, writes its result file
// (and budget, when traced) and returns the driver's line.
func measure(o options, root string, runner func(*runCtx) (*measurement, error)) ([]byte, error) {
	out := filepath.Join(root, "benchmark", "out")
	bin := filepath.Join(out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	compile, err := buildChildren(root, bin)
	if err != nil {
		return nil, err
	}
	c := &runCtx{
		Workload: o.workload, Seed: o.seed, Sizes: fullSizes(float64(o.seconds)), Smoke: o.smoke,
		Trace: o.trace == 1, WriteTrace: true, Root: root, Bin: bin, Out: out,
		DaemonArgs: strings.Fields(o.daemonArgs),
	}
	if o.smoke {
		c.Sizes = smokeSizes()
	}
	res := &runResult{Workload: o.workload, Seed: o.seed, Seconds: c.Sizes.Seconds, Smoke: o.smoke,
		Trace: c.Trace, Env: currentEnvironment(root)}
	c.logf("%s seed=%d seconds=%g trace=%d smoke=%v nproc=%d GOMAXPROCS=%d %s commit=%s",
		o.workload, o.seed, c.Sizes.Seconds, o.trace, o.smoke, res.Env.NProc, res.Env.GoMaxProcs, res.Env.GoVersion, res.Env.Commit)
	m, err := runner(c)
	if err != nil {
		return nil, err
	}
	res.Unit, res.Attempted, res.Failed, res.Notes, res.Detail = m.Unit, m.Attempted, m.Failed, m.Notes, m.Detail
	res.Correct = m.Failed == 0 && m.Attempted > 0
	res.Detail["failed_frac"] = float64(m.Failed) / float64(max(m.Attempted, 1))
	if c.Trace {
		m.Layers["build.compile_s"] = compile
		res.PerLayer, res.Filled = m.Layers, map[string]string{}
		if err := writeBudgets(c.budgetPath(), o.workload, m.Budgets); err != nil {
			return nil, err
		}
		if err := fillLayers(c, res); err != nil {
			return nil, err
		}
	} else {
		res.EndToEnd = m.endToEndSamples()
		res.Detail["peak_rss_mb"] = m.PeakRSSMB
	}
	for _, note := range res.Notes {
		c.logf("FAILED: %s", note)
	}
	line, err := res.contract()
	if err != nil {
		return nil, err
	}
	if err := writeJSON(res.path(out), res); err != nil {
		return nil, err
	}
	return json.Marshal(line)
}

// fillLayers supplies the per-layer metrics of layers this workload never
// executes from smoke-sized traced passes of the workloads that do, because
// the driver wants every traced run to report every per-layer metric. Each
// borrowed metric is marked with its donor in the result file; compare
// per-layer numbers within a workload, never across.
func fillLayers(c *runCtx, res *runResult) error {
	missing := func() bool {
		for _, spec := range perLayer {
			if _, ok := res.PerLayer[spec.Name]; !ok {
				return true
			}
		}
		return false
	}
	for _, donor := range fillOrder {
		if donor == c.Workload || !missing() {
			continue
		}
		fill := *c
		fill.Workload, fill.Sizes, fill.Smoke, fill.WriteTrace = donor, smokeSizes(), true, false
		m, err := runners[donor](&fill)
		if err != nil {
			return fmt.Errorf("filling layers from %s: %w", donor, err)
		}
		for name, v := range m.Layers {
			if _, ok := res.PerLayer[name]; !ok {
				res.PerLayer[name] = v
				res.Filled[name] = donor
			}
		}
	}
	return nil
}

func (c *runCtx) tracePath() string  { return filepath.Join(c.Out, "trace-"+c.Workload+".jsonl") }
func (c *runCtx) budgetPath() string { return filepath.Join(c.Out, "budget-"+c.Workload+".md") }
