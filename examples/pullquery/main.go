// Pullquery: on-demand querying over the probabilistic model (§2's
// complementary BBQ-style design point, with the combined push/pull mode
// the paper says it is "currently exploring").
//
// A scientist occasionally asks the base station for values or regional
// averages at chosen precision/confidence; the engine answers from the
// model posterior when it can, and acquires the cheapest reading set when
// it cannot. A second engine is kept warm by Ken-style pushes and answers
// the same queries cheaper.
//
//	go run ./examples/pullquery
package main

import (
	"fmt"
	"log"

	"ken/examples/pullquery/pull"
	"ken/internal/model"
	"ken/internal/trace"
)

const (
	trainHours = 100
	testHours  = 200
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, err := trace.GenerateGarden(23, trainHours+testHours)
	if err != nil {
		return err
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		return err
	}
	n := tr.Deployment.N()
	train, test := rows[:trainHours], rows[trainHours:]
	mdl, err := model.FitLinearGaussian(train, model.FitConfig{Period: 24})
	if err != nil {
		return err
	}

	engine, err := pull.New(mdl.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		return err
	}

	// Time passes with no communication at all; the posterior widens.
	now := 36 // hours into the test window
	for i := 0; i < now; i++ {
		engine.Step()
	}
	src := pull.SourceFunc(func(attr int) (float64, error) { return test[now-1][attr], nil })

	fmt.Printf("garden, %d nodes; %d silent hours since the model was fit\n\n", n, now)

	// Query 1: tight per-node values for the west half.
	q1 := pull.ValueQuery{Attrs: []int{0, 1, 2, 3, 4}, Epsilon: 0.5, Confidence: 0.95}
	a1, err := engine.Query(q1, src)
	if err != nil {
		return err
	}
	fmt.Printf("value query  ε=0.5 δ=0.95 over 5 nodes: acquired %v (cost %.0f)\n", a1.Acquired, a1.Cost)
	for k, attr := range q1.Attrs {
		fmt.Printf("  node %-2d → %6.2f °C (truth %6.2f, confidence %.3f)\n",
			attr, a1.Values[k], test[now-1][attr], a1.Confidence[k])
	}

	// Query 2: a regional average at the same precision — far cheaper.
	fresh, err := pull.New(mdl.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		return err
	}
	for i := 0; i < now; i++ {
		fresh.Step()
	}
	q2 := pull.AvgQuery{Attrs: []int{0, 1, 2, 3, 4}, Epsilon: 0.5, Confidence: 0.95}
	a2, err := fresh.QueryAverage(q2, src)
	if err != nil {
		return err
	}
	truth := 0.0
	for _, a := range q2.Attrs {
		truth += test[now-1][a]
	}
	truth /= float64(len(q2.Attrs))
	fmt.Printf("\naverage query ε=0.5 δ=0.95 over same nodes: acquired %v (cost %.0f)\n", a2.Acquired, a2.Cost)
	fmt.Printf("  avg → %6.2f °C (truth %6.2f, confidence %.3f)\n", a2.Value, truth, a2.Confidence)

	// Query 3: combined push/pull — a replica warmed by periodic Ken
	// pushes of node 0 answers the tight value query cheaper.
	warm, err := pull.New(mdl.Clone().(*model.LinearGaussian), nil)
	if err != nil {
		return err
	}
	for i := 0; i < now; i++ {
		warm.Step()
		// Ken pushes arrive whenever the source's predictions miss; here
		// nodes 0 and 2 reported on the final hours before the query.
		if i >= now-2 {
			if err := warm.Condition([]int{0, 2}, []float64{test[i][0], test[i][2]}); err != nil {
				return err
			}
		}
	}
	a3, err := warm.Query(q1, src)
	if err != nil {
		return err
	}
	fmt.Printf("\nsame value query on a push-warmed replica: acquired %v (cost %.0f vs cold %.0f)\n",
		a3.Acquired, a3.Cost, a1.Cost)
	fmt.Println("\npush keeps the model warm; pull spends only where confidence is short — complementary, as §2 argues")
	return nil
}
