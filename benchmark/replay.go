package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"ken/internal/core"
	"ken/internal/deploy"
	"ken/internal/query"
	"ken/internal/stream"
	"ken/internal/trace"
	"ken/internal/wire"
)

// The replay workloads run the protocol in-process, one goroutine, closed
// loop. Pass A is the online path — Source.Collect → WriteFrame →
// ReadFrameBuf → Replica.ApplyObserved per epoch, an Answer + aggregate
// every 64th epoch; pass B pushes the same rows through core.Build +
// core.Run, the batch path the figures use.

const (
	labNodes       = 49
	labTrainSteps  = 100
	heartbeatEvery = 24
	answerEvery    = 64
	epsSlack       = 1e-9
)

func labParams(seed int64, k, steps int) deploy.Params {
	return deploy.Params{Dataset: "lab", Seed: seed, TrainSteps: labTrainSteps,
		TestSteps: steps, K: k, HeartbeatEvery: heartbeatEvery}
}

// cliqueIndex maps each attribute to its clique.
func cliqueIndex(dep *deploy.Deployment) []int {
	of := make([]int, dep.N)
	for ci, c := range dep.Partition.Cliques {
		for _, g := range c.Members {
			of[g] = ci
		}
	}
	return of
}

// reportingCliques counts the distinct cliques among a frame's attributes.
func reportingCliques(attrs, cliqueOf []int, seen []bool) int {
	n := 0
	for _, a := range attrs {
		if c := cliqueOf[a]; !seen[c] {
			seen[c] = true
			n++
		}
	}
	for _, a := range attrs {
		seen[cliqueOf[a]] = false
	}
	return n
}

func allAttrs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// missesTruth reports whether any estimate is further than ε + slack from
// truth.
//
// core.Run's estimates are held to ε + 1e-9, its own audit's rule. Answers
// that crossed the wire are held to ε + one wire quantum: the source
// searches with exact readings but both replicas condition on the quantized
// ones, and the conditional mean of an attribute that was *not* reported
// moves with its neighbours' quantization error times the conditioning gain
// — stream's "ε − resolution/2" margin covers only the reported attributes.
// Lab k = 8, seed 40, epoch 10441 misses ε by 2.4e-4 that way (ROADMAP item
// 3c, sound bounds on the wire). Misses inside the quantum are counted and
// reported (eps_misses_within_quantum), not failed, so that the workloads
// hold on every seed; anything beyond it is a failed operation.
func missesTruth(est, truth, eps []float64, slack float64) bool {
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > eps[i]+slack {
			return true
		}
	}
	return false
}

// streamTotals is what one pass A moved and how it went.
type streamTotals struct {
	Wall        time.Duration
	Values      int64 // values sent
	FramedBytes int64 // bytes written, length prefixes included
	Reporting   int64 // clique-epochs that reported (verification repetition only)
	Failed      int64 // epochs that erred or missed ε by more than a wire quantum
	NearMisses  int64 // audited epochs that missed ε by less than that
	Note        string
}

// streamPass runs pass A over rows on fresh endpoints. The replica's answer
// is taken and audited against truth on every epoch of the verification
// repetition (verify) and on every 64th while timing; latMS, when non-nil,
// receives each epoch's Collect→Apply latency.
func streamPass(dep *deploy.Deployment, rows [][]float64, verify bool, latMS []float64) (streamTotals, error) {
	var tot streamTotals
	checkEvery := answerEvery
	if verify {
		checkEvery = 1
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		return tot, err
	}
	rep, err := stream.NewReplica(dep.Config)
	if err != nil {
		return tot, err
	}
	res := src.Resolution()
	eps := dep.Config.Eps
	attrs := allAttrs(dep.N)
	cliqueOf := cliqueIndex(dep)
	seen := make([]bool, len(dep.Partition.Cliques))
	var buf bytes.Buffer
	var body []byte
	start := time.Now()
	for i, row := range rows {
		t0 := time.Now()
		f, err := src.Collect(row)
		if err == nil {
			buf.Reset()
			err = stream.WriteFrame(&buf, f, res)
		}
		framed := buf.Len()
		var g wire.Frame
		if err == nil {
			g, body, err = stream.ReadFrameBuf(&buf, res, body)
		}
		if err == nil {
			err = rep.ApplyObserved(g, nil)
		}
		if latMS != nil {
			latMS[i] = float64(time.Since(t0)) / 1e6
		}
		if err != nil {
			// A replica that missed a frame is out of step for good: every
			// remaining epoch fails with it.
			tot.Failed += int64(len(rows) - i)
			tot.Note = fmt.Sprintf("epoch %d: %v", i, err)
			break
		}
		tot.Values += int64(len(g.Attrs))
		tot.FramedBytes += int64(framed)
		if verify {
			tot.Reporting += int64(reportingCliques(g.Attrs, cliqueOf, seen))
		}
		if (i+1)%checkEvery == 0 {
			ans := rep.Answer()
			_, qerr := query.EvalSnapshot(ans.Estimates, ans.Eps, query.Avg, attrs)
			if qerr != nil || missesTruth(ans.Estimates, row, eps, res) {
				tot.Failed++
				if tot.Note == "" {
					tot.Note = fmt.Sprintf("epoch %d: answer misses truth by more than ε + the wire quantum (aggregate error: %v)", i, qerr)
				}
			} else if missesTruth(ans.Estimates, row, eps, epsSlack) {
				tot.NearMisses++
			}
		}
	}
	tot.Wall = time.Since(start)
	return tot, nil
}

// coreScheme builds pass B's scheme on the deployment's own partition.
func coreScheme(dep *deploy.Deployment) (core.Scheme, error) {
	return core.Build(core.SchemeSpec{
		Scheme:    "DjC" + strconv.Itoa(dep.Params.K),
		Eps:       dep.Config.Eps,
		Train:     dep.Config.Train,
		FitCfg:    dep.Config.FitCfg,
		Partition: dep.Partition,
	})
}

// corePass runs pass B and returns its wall time, reported fraction and
// the number of ε violations core.Run's own audit found.
func corePass(dep *deploy.Deployment, rows [][]float64) (time.Duration, float64, int64, error) {
	s, err := coreScheme(dep)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	res, err := core.Run(context.Background(), s, rows, core.RunOptions{Eps: dep.Config.Eps})
	wall := time.Since(start)
	if err != nil {
		return wall, 0, 0, err
	}
	return wall, res.FractionReported(), int64(res.BoundViolations), nil
}

// replaySetup is everything a replay needs before its clock starts: the
// deployment (trace, Monte Carlo, Greedy-k) and one set of endpoints.
func replaySetup(seed int64, k, epochs int) (*deploy.Deployment, error) {
	dep, err := deploy.Build(labParams(seed, k, epochs))
	if err != nil {
		return nil, err
	}
	if _, err := stream.NewSource(dep.Config); err != nil {
		return nil, err
	}
	if _, err := stream.NewReplica(dep.Config); err != nil {
		return nil, err
	}
	if _, err := coreScheme(dep); err != nil {
		return nil, err
	}
	return dep, nil
}

func runReplay(c *runCtx, k int) (*measurement, error) {
	epochs := c.Sizes.ReplayEpochs
	if k == 8 {
		epochs = c.Sizes.ReplayK8
	}
	m := newMeasurement("epoch")
	var dep *deploy.Deployment
	for i := 0; i < c.setups(); i++ {
		start := time.Now()
		d, err := replaySetup(c.Seed, k, epochs)
		if err != nil {
			return nil, err
		}
		m.Setups = append(m.Setups, time.Since(start).Seconds())
		dep = d
	}
	rows := dep.Test

	// Verification repetition, untimed: every epoch's answer is audited. It
	// also lets the heap and the page cache settle before the clock starts.
	ref, err := streamPass(dep, rows, true, nil)
	if err != nil {
		return nil, err
	}
	m.Attempted += int64(epochs)
	if ref.Failed > 0 {
		m.fail(ref.Failed, "pass A verification: %s", ref.Note)
	}
	_, coreFrac, violations, err := corePass(dep, rows)
	if err != nil {
		return nil, err
	}
	m.Attempted += int64(epochs)
	if violations > 0 {
		m.fail(min(violations, int64(epochs)), "pass B verification: core.Run counted %d ε violations", violations)
	}

	budgetSeconds := c.Sizes.Seconds
	if c.Trace {
		budgetSeconds /= 2 // the other half goes to the traced pass
	}
	lat := make([]float64, epochs)
	var streamRate, repWall []float64
	var ms0, ms1, ms2 runtime.MemStats
	start := time.Now()
	for rep := 0; rep < c.Sizes.MinReps || time.Since(start).Seconds() < budgetSeconds; rep++ {
		measureAllocs := c.Trace && rep == 0
		if measureAllocs {
			runtime.ReadMemStats(&ms0)
		}
		cpu0 := selfCPU()
		a, err := streamPass(dep, rows, false, lat)
		if err != nil {
			return nil, err
		}
		if measureAllocs {
			runtime.ReadMemStats(&ms1)
		}
		wallB, frac, viol, err := corePass(dep, rows)
		if err != nil {
			return nil, err
		}
		cpu := selfCPU() - cpu0
		if measureAllocs {
			runtime.ReadMemStats(&ms2)
		}
		m.Attempted += 2 * int64(epochs)
		if a.Failed > 0 {
			m.fail(a.Failed, "pass A repetition %d: %s", rep, a.Note)
		}
		if viol > 0 {
			m.fail(min(viol, int64(epochs)), "pass B repetition %d: %d ε violations", rep, viol)
		}
		// The replay is deterministic: a repetition that moves other data
		// than the verified one did not run the verified protocol.
		if a.Values != ref.Values || a.FramedBytes != ref.FramedBytes || frac != coreFrac {
			m.fail(int64(epochs), "repetition %d moved %d values / %d bytes, verification moved %d / %d",
				rep, a.Values, a.FramedBytes, ref.Values, ref.FramedBytes)
		}
		streamRate = append(streamRate, float64(epochs)/a.Wall.Seconds())
		repWall = append(repWall, (a.Wall + wallB).Seconds())
		m.Throughput = append(m.Throughput, float64(epochs)/wallB.Seconds())
		m.LatencyP50 = append(m.LatencyP50, percentile(sorted(lat), 0.5))
		m.CPUPerUnit = append(m.CPUPerUnit, cpu*1e6/float64(epochs))
	}
	m.ReportedFrac = float64(ref.Values) / float64(epochs*dep.N)
	m.Detail["stream_epochs_per_s"] = median(streamRate)
	m.Detail["core_epochs_per_s"] = median(m.Throughput)
	m.Detail["reported_frac"] = m.ReportedFrac
	m.Detail["wire_bytes_per_epoch"] = float64(ref.FramedBytes) / float64(epochs)
	m.Detail["repetitions"] = float64(len(repWall))
	m.Detail["eps_misses_within_quantum"] = float64(ref.NearMisses)
	if ref.NearMisses > 0 {
		c.logf("%d of %d verified epochs miss ε by less than the wire quantum (not failed; see missesTruth)", ref.NearMisses, epochs)
	}

	if c.Trace {
		m.Layers["stream.epochs_per_s"] = median(streamRate)
		m.Layers["core.epochs_per_s"] = median(m.Throughput)
		m.Layers["core.reported_frac"] = coreFrac
		m.Layers["stream.allocs_per_epoch"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(epochs)
		m.Layers["stream.alloc_bytes_per_epoch"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(epochs)
		m.Layers["core.allocs_per_epoch"] = float64(ms2.Mallocs-ms1.Mallocs) / float64(epochs)
		m.Layers["wire.bytes_per_value"] = float64(ref.FramedBytes-4*int64(epochs)) / float64(ref.Values) // without the length prefixes
		m.Layers["wire.bytes_per_epoch"] = float64(ref.FramedBytes) / float64(epochs)
		m.Layers["model.suppressed_frac"] = 1 - float64(ref.Reporting)/float64(epochs*len(dep.Partition.Cliques))
		if err := replaySetupLayers(c, dep, m); err != nil {
			return nil, err
		}
		if err := replayTraced(c, dep, rows, median(repWall), m); err != nil {
			return nil, err
		}
	}
	m.PeakRSSMB = selfPeakRSSMB()
	return m, nil
}

// replaySetupLayers times the pieces of set-up layer by layer.
func replaySetupLayers(c *runCtx, dep *deploy.Deployment, m *measurement) error {
	p := dep.Params
	start := time.Now()
	if _, err := trace.GenerateLab(p.Seed, p.TrainSteps+p.TestSteps); err != nil {
		return err
	}
	m.Layers["trace.generate_s"] = time.Since(start).Seconds()
	start = time.Now()
	if _, err := deploy.Build(p); err != nil {
		return err
	}
	m.Layers["deploy.build_s"] = time.Since(start).Seconds()
	const n = 5
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := stream.NewSource(dep.Config); err != nil {
			return err
		}
		if _, err := stream.NewReplica(dep.Config); err != nil {
			return err
		}
	}
	m.Layers["stream.new_endpoint_ms"] = time.Since(start).Seconds() * 1e3 / (2 * n)
	return nil
}

// epochTrace is what the traced pass keeps per epoch besides the spans.
type epochTrace struct {
	collect, apply float64 // µs
	reporting      int     // cliques reporting in the returned frame
	heartbeat      bool
}

// replayTraced repeats both passes once with a span around every call into
// a layer, then derives the per-layer metrics and the time budget.
func replayTraced(c *runCtx, dep *deploy.Deployment, rows [][]float64, untracedWall float64, m *measurement) error {
	epochs := len(rows)
	rec := newRecorder(7 * epochs)
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		return err
	}
	rep, err := stream.NewReplica(dep.Config)
	if err != nil {
		return err
	}
	res := src.Resolution()
	attrs := allAttrs(dep.N)
	cliqueOf := cliqueIndex(dep)
	seen := make([]bool, len(dep.Partition.Cliques))
	per := make([]epochTrace, epochs)
	frames := make([]wire.Frame, 0, min(epochs, rungFrames))
	var buf bytes.Buffer
	var body []byte
	var encodeNS, decodeNS, queryNS int64
	tracedStart := time.Now()
	for i, row := range rows {
		id := int64(i)
		t0 := time.Now()
		f, err := src.Collect(row)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("traced pass A, epoch %d: %w", i, err)
		}
		buf.Reset()
		if err := stream.WriteFrame(&buf, f, res); err != nil {
			return fmt.Errorf("traced pass A, epoch %d: %w", i, err)
		}
		t2 := time.Now()
		var g wire.Frame
		g, body, err = stream.ReadFrameBuf(&buf, res, body)
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("traced pass A, epoch %d: %w", i, err)
		}
		if err := rep.ApplyObserved(g, nil); err != nil {
			return fmt.Errorf("traced pass A, epoch %d: %w", i, err)
		}
		t4 := time.Now()
		end := t4
		if (i+1)%answerEvery == 0 {
			ans := rep.Answer()
			if _, err := query.EvalSnapshot(ans.Estimates, ans.Eps, query.Avg, attrs); err != nil {
				return err
			}
			end = time.Now()
			rec.add("query.answer", id, "stream.epoch", t4, end)
			queryNS += int64(end.Sub(t4))
		}
		rec.add("stream.epoch", id, "", t0, end)
		rec.add("stream.collect", id, "stream.epoch", t0, t1)
		rec.add("wire.encode", id, "stream.epoch", t1, t2)
		rec.add("wire.decode", id, "stream.epoch", t2, t3)
		rec.add("stream.apply", id, "stream.epoch", t3, t4)
		encodeNS += int64(t2.Sub(t1))
		decodeNS += int64(t3.Sub(t2))
		per[i] = epochTrace{
			collect:   float64(t1.Sub(t0)) / 1e3,
			apply:     float64(t4.Sub(t3)) / 1e3,
			reporting: reportingCliques(g.Attrs, cliqueOf, seen),
			heartbeat: g.Special == wire.KindHeartbeat,
		}
		if len(frames) < cap(frames) {
			frames = append(frames, wire.Frame{Step: g.Step, Special: g.Special,
				Attrs: append([]int(nil), g.Attrs...), Values: append([]float64(nil), g.Values...)})
		}
	}
	streamWall := time.Since(tracedStart)

	s, err := coreScheme(dep)
	if err != nil {
		return err
	}
	coreUS := make([]float64, epochs)
	coreReporting := make([]float64, epochs)
	coreStart := time.Now()
	for i, row := range rows {
		t0 := time.Now()
		est, st, err := s.Step(row)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("traced pass B, epoch %d: %w", i, err)
		}
		if missesTruth(est, row, dep.Config.Eps, epsSlack) {
			m.fail(1, "traced pass B, epoch %d: estimate misses truth by more than ε", i)
		}
		rec.add("core.step", int64(i), "", t0, t1)
		coreUS[i] = float64(t1.Sub(t0)) / 1e3
		coreReporting[i] = float64(reportingCliques(st.Reported, cliqueOf, seen))
	}
	coreWall := time.Since(coreStart)
	m.Attempted += 2 * int64(epochs)
	m.Layers["trace.overhead_frac"] = (streamWall+coreWall).Seconds()/untracedWall - 1

	// Per-epoch distributions and the least-squares split of an epoch's
	// time against the number of cliques that reported in it.
	var collect, apply, x, hbCollect, hbApply []float64
	for _, e := range per {
		if e.heartbeat {
			hbCollect = append(hbCollect, e.collect)
			hbApply = append(hbApply, e.apply)
			continue
		}
		collect = append(collect, e.collect)
		apply = append(apply, e.apply)
		x = append(x, float64(e.reporting))
	}
	m.Layers["stream.collect_us_p50"] = tail(collect, 0.5)
	m.Layers["stream.collect_us_p99"] = tail(collect, 0.99)
	m.Layers["stream.apply_us_p50"] = tail(apply, 0.5)
	m.Layers["stream.apply_us_p99"] = tail(apply, 0.99)
	collectBase, collectPer := leastSquares(x, collect)
	applyBase, applyPer := leastSquares(x, apply)
	m.Layers["stream.collect_base_us"] = collectBase
	m.Layers["stream.collect_per_report_us"] = collectPer
	m.Layers["stream.apply_base_us"] = applyBase
	m.Layers["stream.apply_per_report_us"] = applyPer
	m.Layers["stream.collect_heartbeat_us"] = mean(hbCollect)
	m.Layers["stream.apply_heartbeat_us"] = mean(hbApply)
	m.Layers["core.step_us_p50"] = tail(coreUS, 0.5)
	m.Layers["core.step_us_p99"] = tail(coreUS, 0.99)
	_, corePer := leastSquares(coreReporting, coreUS)

	rungs, err := runRungs(dep, frames, res)
	if err != nil {
		return err
	}
	for name, v := range rungs.Layers {
		m.Layers[name] = v
	}

	// stream.self_frac: the share of Collect that is not the model layer's
	// own work, pricing each model call at its rung time.
	cliques := float64(len(dep.Partition.Cliques))
	var reporting float64
	for _, e := range per {
		if !e.heartbeat {
			reporting += float64(e.reporting)
		}
	}
	collectTotalNS := (sum(collect) + sum(hbCollect)) * 1e3
	modelNS := float64(epochs)*cliques*rungs.StepNS + float64(len(collect))*cliques*rungs.CheckNS + reporting*rungs.CondEvalNS
	m.Layers["stream.self_frac"] = 1 - modelNS/collectTotalNS

	rec.counts["epochs"] = float64(epochs)
	rec.counts["cliques"] = cliques
	rec.counts["reporting_clique_epochs"] = reporting
	rec.counts["heartbeat_epochs"] = float64(len(hbCollect))
	if c.WriteTrace {
		if err := rec.write(c.tracePath()); err != nil {
			return err
		}
	}

	// Time budget of one stream epoch and one core epoch. Encode, decode,
	// apply and the answer are measured spans; search+condition is the
	// per-report slope of the least-squares split; predict and check run
	// once per clique and epoch and are priced at their rung times, capped
	// by what the measured stages leave (a rung predicts from a belief no
	// report has collapsed, which costs more than the protocol's own).
	self := selfTimes(rec.spans)
	n := float64(epochs)
	streamEpochUS := streamWall.Seconds() * 1e6 / n
	coreEpochUS := coreWall.Seconds() * 1e6 / n
	m.Budgets = []budget{
		{Title: "stream epoch (pass A)", Unit: "stream epoch", Total: streamEpochUS, Rows: shares(streamEpochUS, []budgetRow{
			{"encode", float64(encodeNS) / 1e3 / n},
			{"decode", float64(decodeNS) / 1e3 / n},
			{"apply", (sum(apply) + sum(hbApply)) / n},
			{"answer+aggregate", float64(queryNS) / 1e3 / n},
			{"loop (epoch self time)", float64(self["stream.epoch"]) / 1e3 / n},
			{"search+condition", collectPer * mean(x)},
			{"check", cliques * rungs.CheckNS / 1e3},
			{"predict", cliques * rungs.StepNS / 1e3},
		})},
		{Title: "core epoch (pass B)", Unit: "core epoch", Total: coreEpochUS, Rows: shares(coreEpochUS, []budgetRow{
			{"search+condition", corePer * mean(coreReporting)},
			{"check", cliques * rungs.CheckNS / 1e3},
			// core.Ken steps a source and a sink replica per clique.
			{"predict", 2 * cliques * rungs.StepNS / 1e3},
		})},
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
