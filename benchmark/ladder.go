package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ken/internal/deploy"
	"ken/internal/gauss"
	"ken/internal/mat"
	"ken/internal/model"
	"ken/internal/query"
	"ken/internal/wire"
)

// The layer ladder: mat kernels → gauss updates → model calls → wire
// codec → query aggregate, each timed alone on the workload's own shapes —
// the largest clique's model fit from the deployment's training columns,
// observation index sets taken from the frames the replay produced.

const (
	rungFrames   = 4096                  // frames kept from the traced replay for the rungs
	rungDuration = 30 * time.Millisecond // how long each rung loops
)

// rungResult carries the rung times other derived metrics need.
type rungResult struct {
	Layers                      map[string]float64
	StepNS, CheckNS, CondEvalNS float64
}

// timeLoop runs op back to back for rungDuration and returns its mean time
// and allocation count per call.
func timeLoop(op func()) (ns, allocs float64) {
	op() // warm the caches and any lazily grown scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	start := time.Now()
	for time.Since(start) < rungDuration {
		for i := 0; i < 64; i++ {
			op()
		}
		n += 64
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// timeBatched times op alone when every call needs prep run first (an
// observation needs a fresh prediction to collapse): prep runs untimed on
// each of a batch of independent states, then op is timed over the batch.
func timeBatched(batch int, prep, op func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	n := 0
	var busy time.Duration
	for round := 0; busy < rungDuration; round++ {
		for i := 0; i < batch; i++ {
			prep(i)
		}
		if round == 1 { // round 0 warms the caches
			runtime.ReadMemStats(&before)
			n, busy = 0, 0
		}
		start := time.Now()
		for i := 0; i < batch; i++ {
			op(i)
		}
		busy += time.Since(start)
		n += batch
	}
	runtime.ReadMemStats(&after)
	return float64(busy) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// largestClique returns the members of the deployment's biggest clique.
func largestClique(dep *deploy.Deployment) []int {
	var best []int
	for _, c := range dep.Partition.Cliques {
		if len(c.Members) > len(best) {
			best = c.Members
		}
	}
	return best
}

// reportSets finds, among the frames' non-heartbeat reports that touch the
// clique, the most frequent report set and the most frequent one-attribute
// report, as ascending clique-local indices.
func reportSets(frames []wire.Frame, members []int) (typical, single []int) {
	local := map[int]int{}
	for i, g := range members {
		local[g] = i
	}
	counts := map[string]int{}
	for _, f := range frames {
		if f.Special == wire.KindHeartbeat {
			continue
		}
		var idx []int
		for _, a := range f.Attrs {
			if i, ok := local[a]; ok {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		sort.Ints(idx)
		parts := make([]string, len(idx))
		for i, v := range idx {
			parts[i] = strconv.Itoa(v)
		}
		counts[strings.Join(parts, ",")]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if counts[keys[a]] != counts[keys[b]] {
			return counts[keys[a]] > counts[keys[b]]
		}
		return keys[a] < keys[b]
	})
	parse := func(key string) []int {
		var out []int
		for _, p := range strings.Split(key, ",") {
			v, _ := strconv.Atoi(p) // keys are built from integers above
			out = append(out, v)
		}
		return out
	}
	typical, single = []int{0}, []int{0}
	if len(keys) > 0 {
		typical = parse(keys[0])
	}
	for _, k := range keys {
		if !strings.Contains(k, ",") {
			single = parse(k)
			break
		}
	}
	return typical, single
}

func runRungs(dep *deploy.Deployment, frames []wire.Frame, res float64) (out rungResult, err error) {
	// The rung bodies are closures called thousands of times; they note the
	// first error instead of returning it.
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	out.Layers = map[string]float64{}
	members := largestClique(dep)
	m := len(members)
	cols := make([][]float64, len(dep.Config.Train))
	for t, row := range dep.Config.Train {
		r := make([]float64, m)
		for i, g := range members {
			r[i] = row[g]
		}
		cols[t] = r
	}
	lg, err := model.FitLinearGaussian(cols, dep.Config.FitCfg)
	if err != nil {
		return out, err
	}
	// The fitted transition and innovation covariance, through the model's
	// stable JSON form.
	var fitted struct {
		A *mat.Dense `json:"a"`
		Q *mat.Dense `json:"q"`
	}
	buf, err := json.Marshal(lg)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(buf, &fitted); err != nil {
		return out, err
	}
	a, q := fitted.A, fitted.Q
	aT := mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			aT.Set(j, i, a.At(i, j))
		}
	}
	typical, single := reportSets(frames, members)
	everything := allAttrs(m)

	// mat
	ch := mat.NewCholeskyWorkspace(m)
	out.Layers["mat.factorize_ns"], _ = timeLoop(func() { must(ch.Factorize(q)) })
	v := make([]float64, m)
	for i := range v {
		v[i] = 0.1 * math.Sqrt(q.At(i, i))
	}
	out.Layers["mat.rank1_ns"], _ = timeLoop(func() { must(ch.Update(v)); must(ch.Downdate(v)) })
	grow := mat.NewCholeskyWorkspace(m)
	col := make([]float64, m)
	extend, _ := timeLoop(func() {
		grow.Reset()
		for i := 0; i < m; i++ {
			for j := 0; j < i; j++ {
				col[j] = q.At(j, i)
			}
			must(grow.Extend(col[:i], q.At(i, i)))
		}
	})
	out.Layers["mat.extend_ns"] = extend / float64(m)
	must(ch.Factorize(q))
	rhs := make([]float64, m)
	out.Layers["mat.solve_ns"], _ = timeLoop(func() {
		for i := range rhs {
			rhs[i] = 1
		}
		must(ch.SolveVecInPlace(rhs))
	})
	prod := mat.NewDense(m, m)
	out.Layers["mat.mul_ns"], _ = timeLoop(func() { must(prod.MulInto(a, q)) })

	// gauss: a belief that has been through one prediction, so its
	// covariance is the dense Q-shaped block the protocol works on.
	g, err := gauss.New(make([]float64, m), q)
	if err != nil {
		return out, err
	}
	ws := gauss.NewWorkspace(m)
	predict := func() { must(g.Predict(a, aT, q, ws)) }
	var allocs, ops float64
	tally := func(name string, ns, al float64) {
		out.Layers[name] = ns
		allocs += al
		ops++
	}
	ns, al := timeLoop(predict)
	tally("gauss.predict_ns", ns, al)
	// An observation needs a fresh prediction to collapse, and a prediction
	// from a collapsed state is cheaper than a typical one, so neither can
	// be timed by difference: a batch of beliefs is predicted untimed, then
	// observed under the clock.
	const batch = 256
	beliefs := make([]*gauss.Gaussian, batch)
	spaces := make([]*gauss.Workspace, batch)
	for i := range beliefs {
		beliefs[i], spaces[i] = g.Clone(), gauss.NewWorkspace(m)
	}
	repredict := func(i int) { must(beliefs[i].Predict(a, aT, q, spaces[i])) }
	vals := make([]float64, m)
	ns, al = timeBatched(batch, repredict, func(i int) { must(beliefs[i].ObserveExact(single, vals[:1], spaces[i])) })
	tally("gauss.observe1_ns", ns, al)
	ns, al = timeBatched(batch, repredict, func(i int) { must(beliefs[i].ObserveExact(everything, vals, spaces[i])) })
	tally("gauss.observek_ns", ns, al)
	predict()
	ns, al = timeLoop(func() {
		must(g.CondReset(ws))
		for _, i := range typical {
			must(g.CondAdd(i, 0.25, ws))
		}
	})
	tally("gauss.cond_add_ns", ns/float64(len(typical)), al)
	dst := make([]float64, m)
	ns, al = timeLoop(func() { must(g.MeanInto(dst)) })
	tally("gauss.mean_ns", ns, al)
	out.Layers["gauss.allocs_per_op"] = allocs / ops

	// model: the clique's own fitted model.
	eps := make([]float64, m)
	for i, gi := range members {
		eps[i] = dep.Config.Eps[gi]
	}
	// Without reports the residual mean decays towards zero, and a mean in
	// the denormal range would time the FPU's slow path, not the model: the
	// rung restarts from the fitted state every few hundred steps.
	type clique interface {
		model.IncrementalConditioner
		model.MeanWriter
	}
	fresh := func() clique { return lg.Clone().(clique) }
	cur, steps := fresh(), 0
	out.StepNS, _ = timeLoop(func() {
		if steps++; steps%256 == 0 {
			cur = fresh()
		}
		cur.Step()
	})
	one := fresh()
	one.Step()
	truth := make([]float64, m)
	must(one.MeanInto(truth))
	var within bool
	out.CheckNS, _ = timeLoop(func() {
		must(one.MeanInto(dst))
		within = model.WithinBounds(dst, truth, eps)
	})
	if !within {
		return out, fmt.Errorf("model check rung: a mean is not within ε of itself")
	}
	out.CondEvalNS, _ = timeLoop(func() {
		must(one.CondReset())
		for _, i := range typical {
			must(one.CondAdd(i, truth[i]+eps[i]))
		}
		must(one.CondMeanInto(dst))
	})
	out.Layers["model.step_ns"] = out.StepNS
	out.Layers["model.check_ns"] = out.CheckNS
	out.Layers["model.cond_eval_ns"] = out.CondEvalNS

	// wire, over the frames the replay produced.
	bodies := make([][]byte, len(frames))
	encode, encAllocs := timeLoop(func() {
		for i, f := range frames {
			b, err := wire.Encode(f, res)
			must(err)
			bodies[i] = b
		}
	})
	var into wire.Frame
	decode, decAllocs := timeLoop(func() {
		for _, b := range bodies {
			must(wire.DecodeInto(&into, b, res))
		}
	})
	nf := float64(len(frames))
	out.Layers["wire.encode_ns"] = encode / nf
	out.Layers["wire.decode_ns"] = decode / nf
	out.Layers["wire.allocs_per_frame"] = (encAllocs + decAllocs) / nf

	// query: the all-attribute average a /v1/query?agg=avg serves.
	est := make([]float64, dep.N)
	attrs := allAttrs(dep.N)
	out.Layers["query.eval_snapshot_ns"], _ = timeLoop(func() {
		_, err := query.EvalSnapshot(est, dep.Config.Eps, query.Avg, attrs)
		must(err)
	})
	if firstErr != nil {
		return out, fmt.Errorf("layer rung: %w", firstErr)
	}
	return out, nil
}
