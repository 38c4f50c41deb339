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
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"ken/internal/obs"
	"ken/internal/stats"
	"ken/internal/trace"
)

func main() {
	dataset := flag.String("dataset", "garden", "deployment: garden or lab")
	attr := flag.String("attr", "temperature", "attribute: temperature, humidity or voltage")
	steps := flag.Int("steps", 1000, "number of hourly steps to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	summary := flag.Bool("summary", false, "print a summary instead of CSV")
	diagnose := flag.Bool("diagnose", false, "print model-selection diagnostics instead of CSV")
	var of obs.CmdFlags
	of.Register(flag.CommandLine)
	flag.Parse()

	// kentrace emits no protocol events of its own, but it carries the
	// uniform observability flag block: -obs-addr serves generator metrics
	// and -trace-out writes a valid (header-only) trace.
	_, cleanup, err := of.Setup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "kentrace: %v\n", err)
		os.Exit(2)
	}
	defer cleanup()

	tr, err := trace.GenerateNamed(*dataset, *seed, *steps)
	if errors.Is(err, trace.ErrUnknownDataset) {
		slog.Error("bad -dataset", "err", err)
		os.Exit(2)
	}
	if err != nil {
		slog.Error("trace generation failed", "err", err)
		os.Exit(1)
	}

	var a trace.Attribute
	switch *attr {
	case "temperature":
		a = trace.Temperature
	case "humidity":
		a = trace.Humidity
	case "voltage":
		a = trace.Voltage
	default:
		slog.Error("unknown attribute", "attr", *attr)
		os.Exit(2)
	}

	if *summary {
		printSummary(tr)
		return
	}
	if *diagnose {
		if err := printDiagnostics(tr, a); err != nil {
			slog.Error("diagnostics failed", "err", err)
			os.Exit(1)
		}
		return
	}
	if err := tr.WriteCSV(os.Stdout, a); err != nil {
		slog.Error("CSV write failed", "err", err)
		os.Exit(1)
	}
}

// printDiagnostics reports the statistics Ken's model selection rests on:
// temporal autocorrelation (favours dynamic models over caching), seasonal
// strength (favours diurnal profiles), one-step drift (predicts caching
// performance) and the spatial correlation/distance relation (predicts the
// payoff of larger cliques).
func printDiagnostics(tr *trace.Trace, a trace.Attribute) error {
	rows, err := tr.Rows(a)
	if err != nil {
		return err
	}
	n := tr.Deployment.N()
	fmt.Printf("diagnostics for %s/%v (%d nodes, %d steps)\n\n", tr.Deployment.Name, a, n, len(rows))

	var ac1, seas, drift float64
	for i := 0; i < n; i++ {
		col, err := tr.Column(a, i)
		if err != nil {
			return err
		}
		if v, err := stats.Autocorrelation(col, 1); err == nil {
			ac1 += v
		}
		if v, err := stats.SeasonalStrength(col, 24); err == nil {
			seas += v
		}
		if v, err := stats.MeanAbsDiff(col); err == nil {
			drift += v
		}
	}
	fmt.Printf("mean lag-1 autocorrelation : %.3f (high ⇒ temporal models beat caching)\n", ac1/float64(n))
	fmt.Printf("mean seasonal strength (24): %.3f (high ⇒ diurnal profile worth fitting)\n", seas/float64(n))
	fmt.Printf("mean one-step |Δx|         : %.3f (caching reports ≈ min(1, this/ε))\n", drift/float64(n))

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
		var profile [24]float64
		var count [24]int
		for t, v := range col {
			profile[t%24] += v
			count[t%24]++
		}
		for h := range profile {
			if count[h] > 0 {
				profile[h] /= float64(count[h])
			}
		}
		for t, v := range col {
			res[t][i] = v - profile[t%24]
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
	fmt.Printf("\ndeseasonalised spatial correlation by distance (5 m buckets):\n")
	for d := 0; d < 20; d++ {
		if b, ok := buckets[d]; ok {
			fmt.Printf("  %2d-%2d m: %.3f  (%d pairs)\n", d*5, d*5+5, b.sum/float64(b.n), b.n)
		}
	}
	fmt.Printf("\nsteep decay ⇒ small local cliques suffice; flat ⇒ larger cliques keep paying\n")
	return nil
}

func printSummary(tr *trace.Trace) {
	fmt.Printf("deployment: %s (%d nodes), %d steps of %.0f minutes\n",
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
		fmt.Printf("  %-12s min %8.3f  max %8.3f  mean %8.3f  (default ε %.2g)\n",
			a, min, max, sum/float64(count), a.DefaultEpsilon())
	}
}
