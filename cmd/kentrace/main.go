// Command kentrace generates synthetic deployment traces and dumps them as
// CSV (one attribute at a time), or prints a summary. The synthetic Lab and
// Garden generators substitute for the paper's real traces (Intel Research
// Lab; UC Berkeley Botanical Garden), which are not redistributable here —
// see DESIGN.md for the substitution rationale.
//
// Usage:
//
//	kentrace -dataset garden -steps 2000 > garden_temp.csv
//	kentrace -dataset lab -attr humidity -steps 1000 > lab_hum.csv
//	kentrace -dataset garden -summary
//	kentrace -dataset lab -diagnose        # model-selection diagnostics
//
// -summary and -diagnose each replace the CSV and are rejected together;
// -diagnose needs -steps of at least 48, two periods of its lag-24 statistics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ken/internal/obs"
	"ken/internal/stats"
	"ken/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// diurnal is the period, in hourly steps, of the seasonal diagnostics;
// SeasonalStrength needs two full periods.
const diurnal = 24

// options carries the parsed flags.
type options struct {
	dataset, attr     string
	steps             int
	seed              int64
	summary, diagnose bool
}

// usageError marks a flag combination or value no run could satisfy: exit 2,
// like a flag the parser rejects.
type usageError struct{ error }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kentrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.dataset, "dataset", "garden", "deployment: garden or lab")
	fs.StringVar(&o.attr, "attr", "temperature", "attribute: temperature, humidity or voltage")
	fs.IntVar(&o.steps, "steps", 1000, "number of hourly steps to generate")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.BoolVar(&o.summary, "summary", false, "print a summary instead of CSV (not with -diagnose)")
	fs.BoolVar(&o.diagnose, "diagnose", false, fmt.Sprintf("print model-selection diagnostics instead of CSV (needs -steps >= %d; not with -summary)", 2*diurnal))
	var of obs.CmdFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// kentrace emits no protocol events of its own, but it carries the
	// uniform observability flag block: -obs-addr serves generator metrics
	// and -trace-out writes a valid (header-only) trace.
	_, cleanup, err := of.Setup()
	if err != nil {
		fmt.Fprintf(stderr, "kentrace: %v\n", err)
		return 2
	}
	err = o.run(stdout)
	cleanup()
	if err != nil {
		fmt.Fprintf(stderr, "kentrace: %v\n", err)
		if _, usage := err.(usageError); usage {
			return 2
		}
		return 1
	}
	return 0
}

func (o options) run(stdout io.Writer) error {
	if o.summary && o.diagnose {
		return usageError{fmt.Errorf("-summary and -diagnose each replace the CSV; pass one")}
	}
	a, ok := attribute(o.attr)
	if !ok {
		return usageError{fmt.Errorf("-attr %s: unknown attribute (temperature, humidity or voltage)", o.attr)}
	}
	if o.diagnose && o.steps < 2*diurnal {
		return fmt.Errorf("-steps %d: -diagnose needs at least %d steps (two %d-hour periods)", o.steps, 2*diurnal, diurnal)
	}
	tr, err := trace.GenerateNamed(o.dataset, o.seed, o.steps)
	if errors.Is(err, trace.ErrUnknownDataset) {
		return usageError{fmt.Errorf("-dataset %s: %w", o.dataset, err)}
	}
	if err != nil {
		return fmt.Errorf("-steps %d: %w", o.steps, err)
	}
	switch {
	case o.summary:
		printSummary(stdout, tr)
		return nil
	case o.diagnose:
		return printDiagnostics(stdout, tr, a)
	}
	return tr.WriteCSV(stdout, a)
}

// attribute resolves an -attr value.
func attribute(name string) (trace.Attribute, bool) {
	for _, a := range trace.Attributes {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}

// printDiagnostics reports the statistics Ken's model selection rests on:
// temporal autocorrelation (favours dynamic models over caching), seasonal
// strength (favours diurnal profiles), one-step drift (predicts caching
// performance) and the spatial correlation/distance relation (predicts the
// payoff of larger cliques).
func printDiagnostics(w io.Writer, tr *trace.Trace, a trace.Attribute) error {
	rows, err := tr.Rows(a)
	if err != nil {
		return err
	}
	n := tr.Deployment.N()
	fmt.Fprintf(w, "diagnostics for %s/%v (%d nodes, %d steps)\n\n", tr.Deployment.Name, a, n, len(rows))

	var ac1, seas, drift float64
	for i := 0; i < n; i++ {
		col, err := tr.Column(a, i)
		if err != nil {
			return err
		}
		// A statistic that cannot be computed fails the run: a dropped
		// error would print as a made-up 0.000 in the mean.
		a1, err := stats.Autocorrelation(col, 1)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		ss, err := stats.SeasonalStrength(col, diurnal)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		d, err := stats.MeanAbsDiff(col)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		ac1, seas, drift = ac1+a1, seas+ss, drift+d
	}
	fmt.Fprintf(w, "mean lag-1 autocorrelation : %.3f (high ⇒ temporal models beat caching)\n", ac1/float64(n))
	fmt.Fprintf(w, "mean seasonal strength (24): %.3f (high ⇒ diurnal profile worth fitting)\n", seas/float64(n))
	fmt.Fprintf(w, "mean one-step |Δx|         : %.3f (caching reports ≈ min(1, this/ε))\n", drift/float64(n))

	// Deseasonalise before correlating: the shared diurnal cycle would
	// otherwise dominate and hide the distance-decaying component that
	// clique selection exploits.
	res := make([][]float64, len(rows))
	for t := range res {
		res[t] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		col, err := tr.Column(a, i)
		if err != nil {
			return err
		}
		var profile [diurnal]float64
		var count [diurnal]int
		for t, v := range col {
			profile[t%diurnal] += v
			count[t%diurnal]++
		}
		for h := range profile {
			if count[h] > 0 {
				profile[h] /= float64(count[h])
			}
		}
		for t, v := range col {
			res[t][i] = v - profile[t%diurnal]
		}
	}
	corr, err := stats.CorrelationMatrix(res)
	if err != nil {
		return err
	}
	// Bucket pairwise correlation by inter-node distance.
	type bucket struct {
		sum float64
		n   int
	}
	buckets := map[int]*bucket{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := int(tr.Deployment.Nodes[i].Distance(tr.Deployment.Nodes[j]) / 5)
			b := buckets[d]
			if b == nil {
				b = &bucket{}
				buckets[d] = b
			}
			b.sum += corr[i][j]
			b.n++
		}
	}
	fmt.Fprintf(w, "\ndeseasonalised spatial correlation by distance (5 m buckets):\n")
	for d := 0; d < 20; d++ {
		if b, ok := buckets[d]; ok {
			fmt.Fprintf(w, "  %2d-%2d m: %.3f  (%d pairs)\n", d*5, d*5+5, b.sum/float64(b.n), b.n)
		}
	}
	fmt.Fprintf(w, "\nsteep decay ⇒ small local cliques suffice; flat ⇒ larger cliques keep paying\n")
	return nil
}

func printSummary(w io.Writer, tr *trace.Trace) {
	fmt.Fprintf(w, "deployment: %s (%d nodes), %d steps of %.0f minutes\n",
		tr.Deployment.Name, tr.Deployment.N(), tr.Steps(), tr.StepMinutes)
	for _, a := range trace.Attributes {
		rows, err := tr.Rows(a)
		if err != nil {
			continue
		}
		min, max, sum, count := rows[0][0], rows[0][0], 0.0, 0
		for _, row := range rows {
			for _, v := range row {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
				sum += v
				count++
			}
		}
		fmt.Fprintf(w, "  %-12s min %8.3f  max %8.3f  mean %8.3f  (default ε %.2g)\n",
			a, min, max, sum/float64(count), a.DefaultEpsilon())
	}
}
