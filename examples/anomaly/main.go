// Anomaly: event-detection with Ken (§1.1). The model encodes the expected
// "normal" state of the environment; anomalies — here, heat spikes injected
// into a lab-style deployment — are exactly the readings the model cannot
// predict, so Ken pushes them to the base station the moment they occur
// while staying almost silent in steady state. Approximate data collection
// and event detection become the same mechanism.
//
// The example also demonstrates the §6 node-failure detector: a node that
// goes silent for longer than its expected miss rate explains is flagged.
//
//	go run ./examples/anomaly
package main

import (
	"context"
	"fmt"
	"log"

	"ken/examples/anomaly/events"
	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/trace"
)

const (
	trainHours = 100
	testHours  = 500
	spikeNode  = 10
	spikeHour  = 200 // test-window index of the injected event
	spikeSize  = 18  // °C — a fire-like heat excursion
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, err := trace.GenerateLab(3, trainHours+testHours)
	if err != nil {
		return err
	}
	// Inject a 3-hour heat spike into the test window.
	from := trainHours + spikeHour
	if err := tr.InjectAnomaly(trace.Temperature, spikeNode, from, from+3, spikeSize); err != nil {
		return err
	}
	exp, err := tr.Experiment(trainHours, 0)
	if err != nil {
		return err
	}
	n, train, test, eps := len(exp.Eps), exp.Train, exp.Test, exp.Eps

	// Singleton cliques: each node is its own detector (typical for
	// event-driven deployments where nodes must act autonomously).
	p, err := cliques.Runs(n, 1, cliques.RootFirst)
	if err != nil {
		return err
	}
	ken, err := core.NewKen(core.KenConfig{
		Partition: p,
		Train:     train,
		Eps:       eps,
		FitCfg:    model.FitConfig{Period: 24},
	})
	if err != nil {
		return err
	}
	res, err := core.Run(context.Background(), ken, test, core.RunOptions{Eps: eps})
	if err != nil {
		return err
	}
	if res.BoundViolations != 0 {
		return fmt.Errorf("guarantee violated %d times", res.BoundViolations)
	}

	fmt.Printf("steady-state traffic: %.1f%% of readings reported\n", 100*res.FractionReported())

	// The sink sees the spike the hour it happens: its estimate tracks the
	// anomalous truth within ε because the node pushed the reading.
	estBefore := res.Estimates[spikeHour-1][spikeNode]
	estDuring := res.Estimates[spikeHour][spikeNode]
	truthDuring := test[spikeHour][spikeNode]
	fmt.Printf("node %d estimate: %.2f°C the hour before, %.2f°C during the spike (truth %.2f°C)\n",
		spikeNode, estBefore, estDuring, truthDuring)
	if diff := estDuring - truthDuring; diff < -0.5 || diff > 0.5 {
		return fmt.Errorf("sink missed the anomaly: estimate %v, truth %v", estDuring, truthDuring)
	}
	if !res.ReportedAt(spikeHour, spikeNode) {
		return fmt.Errorf("spiking node did not report at the spike hour")
	}
	fmt.Printf("anomaly visible at the base station with zero detection latency ✓\n\n")

	// Fire-alarm thresholds over the sink estimates: the ±ε bound makes
	// detection guaranteed — no crossing can slip through unalerted.
	ths := make([]events.Threshold, n)
	for i := range ths {
		ths[i] = events.Threshold{Attr: i, Level: 33, Eps: 0.5}
	}
	alarm, err := events.NewDetector(n, ths)
	if err != nil {
		return err
	}
	alerts, err := alarm.Scan(res.Estimates)
	if err != nil {
		return err
	}
	if _, _, err := alarm.Audit(res.Estimates, test); err != nil {
		return fmt.Errorf("detection guarantee audit: %w", err)
	}
	fmt.Printf("fire alarm at 33°C: %d alerts fired, audit confirms zero missed crossings\n", len(alerts))
	for _, a := range alerts {
		fmt.Printf("  step %d node %d: %.2f°C (%s)\n", a.Step, a.Attr, a.Estimate, a.Verdict)
	}
	fmt.Println()

	// Failure detection (§6): estimate node 0's report rate with Monte
	// Carlo, then watch its report stream. A healthy silent patch is fine;
	// a dead node trips the detector.
	col := make([][]float64, trainHours)
	for t := range col {
		col[t] = []float64{train[t][0]}
	}
	mdl, err := model.FitLinearGaussian(col, model.FitConfig{Period: 24})
	if err != nil {
		return err
	}
	rate, err := mc.ExpectedReports(mdl, []float64{0.5}, mc.Config{Seed: 3})
	if err != nil {
		return err
	}
	if rate >= 1 {
		rate = 0.99
	}
	det, err := core.NewFailureDetector(rate, 0.001)
	if err != nil {
		return err
	}
	fmt.Printf("node 0 expected report rate: %.2f → silence of %d+ steps ⇒ suspect failure\n",
		rate, det.SilenceThreshold())

	// Feed the detector the real per-step report pattern, then simulate
	// the node dying (pure silence).
	died := -1
	for t := 0; t < len(test); t++ {
		reported := res.ReportedAt(t, 0)
		if t >= 300 {
			reported = false // node dies at step 300
		}
		if det.Observe(reported) && died < 0 {
			died = t
		}
	}
	if died < 0 {
		return fmt.Errorf("failure never detected")
	}
	fmt.Printf("node 0 died at step 300; detector flagged it at step %d (%d steps of silence)\n",
		died, died-300+1)
	return nil
}
