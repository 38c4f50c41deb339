// Analysis: the biologist's end-to-end workflow on imperfect data (§1).
//
// A real deployment trace arrives as a CSV full of holes (radio loss,
// reboots). This example: (1) writes such a CSV, complete with NaN gaps;
// (2) loads and repairs it with trace.ReadCSVMatrix, trace.FillGaps and
// trace.FromMatrix; (3) runs Ken collection over it; (4) answers the
// exploratory windowed aggregates the paper's biologists wanted — daily
// means, weekly extremes — from the sink's answer stream alone, each with
// an error bar provably derived from the collection contract.
//
//	go run ./examples/analysis
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/query"
	"ken/internal/trace"
)

const (
	trainHours = 100
	testHours  = 24 * 14 // two weeks
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A "field" CSV: generate a garden trace, punch radio-loss holes
	//    into it, and round-trip it through the CSV interchange format.
	tr, err := trace.GenerateGarden(29, trainHours+testHours)
	if err != nil {
		return err
	}
	var csvBuf bytes.Buffer
	if err := tr.WriteCSV(&csvBuf, trace.Temperature); err != nil {
		return err
	}
	rows, _, err := trace.ReadCSVMatrix(&csvBuf)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(5))
	holes := 0
	for t := range rows {
		for i := range rows[t] {
			if rng.Float64() < 0.03 { // 3% of readings lost
				rows[t][i] = math.NaN()
				holes++
			}
		}
	}
	fmt.Printf("field data: %d readings, %d holes (%.1f%%)\n",
		len(rows)*len(rows[0]), holes, 100*float64(holes)/float64(len(rows)*len(rows[0])))

	// 2. Repair: interpolate interior gaps, refuse anything long enough to
	//    be fiction.
	if err := trace.FillGaps(rows, 6); err != nil {
		return err
	}
	repaired, err := trace.FromMatrix(tr.Deployment, trace.Temperature, rows, 60)
	if err != nil {
		return err
	}
	exp, err := repaired.Experiment(trainHours, 0)
	if err != nil {
		return err
	}
	n, train, test, eps := len(exp.Eps), exp.Train, exp.Test, exp.Eps

	// 3. Collect with Ken (adjacent pairs).
	p, err := cliques.Runs(n, 2, cliques.RootFirst)
	if err != nil {
		return err
	}
	ken, err := core.NewKen(core.KenConfig{
		Partition: p, Train: train, Eps: eps,
		FitCfg: model.FitConfig{Period: 24},
	})
	if err != nil {
		return err
	}
	rec := &recorder{Scheme: ken}
	res, err := core.Run(context.Background(), rec, test, core.RunOptions{Eps: eps})
	if err != nil {
		return err
	}
	fmt.Printf("collection: %.1f%% of readings transmitted, %d ε violations\n\n",
		100*res.FractionReported(), res.BoundViolations)

	// 4. Exploratory analytics at the base station, with error bars.
	allAttrs := make([]int, n)
	for i := range allAttrs {
		allAttrs[i] = i
	}
	fmt.Println("daily network-wide temperature means (answered from estimates only):")
	for day := 0; day < 5; day++ {
		w := query.Window{Agg: query.Avg, Attrs: allAttrs, From: day * 24, To: (day + 1) * 24}
		ans, err := query.Eval(rec.est, eps, w)
		if err != nil {
			return err
		}
		truth, err := query.TruthAggregate(test, w)
		if err != nil {
			return err
		}
		fmt.Printf("  day %d: %6.2f ± %.2f °C   (truth %6.2f — inside the bar: %v)\n",
			day+1, ans.Value, ans.Bound, truth, math.Abs(ans.Value-truth) <= ans.Bound)
	}
	for _, agg := range []query.Aggregate{query.Min, query.Max} {
		w := query.Window{Agg: agg, Attrs: allAttrs, From: 0, To: 24 * 7}
		ans, err := query.Eval(rec.est, eps, w)
		if err != nil {
			return err
		}
		truth, err := query.TruthAggregate(test, w)
		if err != nil {
			return err
		}
		fmt.Printf("week-1 %s: %6.2f ± %.2f °C (truth %6.2f)\n", agg, ans.Value, ans.Bound, truth)
	}
	fmt.Println("\nevery error bar is a theorem, not a heuristic: it follows from the ±ε collection contract")
	return nil
}

// recorder keeps the sink's answer stream the queries run over: core.Run
// keeps totals only, and a step's estimate is the scheme's view until its
// next step, so it is copied here.
type recorder struct {
	core.Scheme
	est [][]float64
}

func (r *recorder) Step(truth []float64) ([]float64, core.StepStats, error) {
	est, st, err := r.Scheme.Step(truth)
	if err == nil {
		r.est = append(r.est, slices.Clone(est))
	}
	return est, st, err
}
