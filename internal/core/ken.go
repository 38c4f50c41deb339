package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/protocol"
)

// ProbConfig enables probabilistic reporting (§6 "Probabilistic
// Reporting"): the hard ε step function is relaxed so that small violations
// are only reported with a probability that grows with the violation ratio,
// p = 1 − exp(−Steepness·(ratio − 1)) for ratio = |error|/ε > 1. This
// trades the deterministic guarantee for further communication savings —
// gross violations are still reported almost surely, so errors stay
// stochastically bounded. Run's audit then counts bound violations instead
// of forbidding them.
type ProbConfig struct {
	// Steepness controls how fast the report probability rises past the
	// bound. Large values approach the deterministic step function.
	Steepness float64
	// Seed drives the reporting coin flips.
	Seed int64
}

// KenConfig assembles a Ken Disjoint-Cliques collection scheme.
type KenConfig struct {
	// Name labels the scheme in results; empty derives "DjCk" from the
	// partition's maximum clique size.
	Name string
	// Partition assigns attributes to cliques with chosen roots (the M
	// estimates inside are not used at runtime — real reports are counted).
	Partition *cliques.Partition
	// Train is the full training matrix used to fit one model per clique.
	Train [][]float64
	// Eps are the per-attribute error bounds.
	Eps []float64
	// FitCfg controls per-clique model learning (used by the default
	// LinearGaussian factory).
	FitCfg model.FitConfig
	// ModelFactory, when non-nil, builds each clique's model from its
	// training columns instead of the default FitLinearGaussian — the hook
	// that runs richer model families (model.Switching, model.Adaptive)
	// inside the Disjoint-Cliques engine. The returned model must satisfy
	// the replicated determinism contract: clones stepped and conditioned
	// identically stay identical.
	ModelFactory func(train [][]float64) (model.Model, error)
	// Topology prices messages; nil gives topology-independent accounting
	// (zero intra cost, one unit per reported value).
	Topology *network.Topology
	// Exhaustive switches the minimal-report search from the greedy
	// heuristic to exact subset enumeration (ablation).
	Exhaustive bool
	// Prob, when non-nil, enables probabilistic reporting.
	Prob *ProbConfig
	// Obs, when non-nil, attaches metrics and protocol event tracing.
	// With a nil observer the instrumented step path costs nothing beyond
	// nil checks (see package obs).
	Obs *obs.Observer
}

// kenClique is one clique's runtime state: the source and sink replicas of
// its protocol kernel.
type kenClique struct {
	root  int
	src   *protocol.Kernel
	sink  *protocol.Kernel
	intra float64 // per-step collection cost at the root
}

// Ken is the paper's architecture: replicated dynamic probabilistic models
// per clique, with the source transmitting minimal value subsets on
// prediction misses (§3.2).
type Ken struct {
	name       string
	n          int
	part       *cliques.Partition
	cliques    []kenClique
	top        *network.Topology
	exhaustive bool
	prob       *ProbConfig
	rng        *rand.Rand
	estBuf     []float64 // Step's returned estimate vector, reused across epochs

	// Observability handles, resolved once in NewKen; all nil (and
	// therefore no-ops) when KenConfig.Obs is unset.
	tracer        *obs.Tracer
	span          *obs.Span // current epoch span, set by Run via BeginEpoch
	stepN         int64
	mValues       *obs.Counter // ken_values_reported_total
	mSuppressed   *obs.Counter // ken_values_suppressed_total
	mReportMsgs   *obs.Counter // ken_report_messages_total
	mProbFlips    *obs.Counter // ken_prob_flips_total
	mProbSuppress *obs.Counter // ken_prob_suppressed_total
	mStepSeconds  *obs.Timer   // ken_step_seconds
	mHeartbeats   *obs.Counter // ken_heartbeats_total (lossy wrapper)
	mLostReports  *obs.Counter // ken_lost_reports_total (lossy wrapper)
	stepObserved  bool         // true when mStepSeconds is live
}

var _ Scheme = (*Ken)(nil)

// NewKen fits per-clique models on the training data and wires up the
// replicated source/sink pairs.
func NewKen(cfg KenConfig) (*Ken, error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("core: KenConfig needs a partition")
	}
	if len(cfg.Train) == 0 {
		return nil, fmt.Errorf("core: KenConfig needs training data")
	}
	n := len(cfg.Train[0])
	if len(cfg.Eps) != n {
		return nil, fmt.Errorf("core: eps dim %d, training dim %d", len(cfg.Eps), n)
	}
	if err := cfg.Partition.Validate(n); err != nil {
		return nil, err
	}
	if cfg.Topology != nil && cfg.Topology.N() != n {
		return nil, fmt.Errorf("core: topology has %d nodes, data has %d", cfg.Topology.N(), n)
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("DjC%d", cfg.Partition.MaxCliqueSize())
	}
	k := &Ken{
		name:       name,
		n:          n,
		part:       cfg.Partition,
		top:        cfg.Topology,
		exhaustive: cfg.Exhaustive,
		prob:       cfg.Prob,
	}
	k.tracer = cfg.Obs.Tracer()
	reg := cfg.Obs.Registry()
	k.mValues = reg.Counter("ken_values_reported_total")
	k.mSuppressed = reg.Counter("ken_values_suppressed_total")
	k.mReportMsgs = reg.Counter("ken_report_messages_total")
	k.mProbFlips = reg.Counter("ken_prob_flips_total")
	k.mProbSuppress = reg.Counter("ken_prob_suppressed_total")
	k.mHeartbeats = reg.Counter("ken_heartbeats_total")
	k.mLostReports = reg.Counter("ken_lost_reports_total")
	k.mStepSeconds = reg.Timer("ken_step_seconds")
	k.stepObserved = reg != nil
	if cfg.Prob != nil {
		if cfg.Prob.Steepness <= 0 {
			return nil, fmt.Errorf("core: probabilistic reporting needs positive steepness, got %v", cfg.Prob.Steepness)
		}
		k.rng = rand.New(rand.NewSource(cfg.Prob.Seed))
	}
	fit := cfg.ModelFactory
	if fit == nil {
		fit = func(train [][]float64) (model.Model, error) {
			return model.FitLinearGaussian(train, cfg.FitCfg)
		}
	}
	for _, c := range cfg.Partition.Cliques {
		proto, err := protocol.Fit(cfg.Train, cfg.Eps, c.Members, fit)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		intra := 0.0
		if cfg.Topology != nil {
			for _, g := range c.Members {
				intra += cfg.Topology.Comm(g, c.Root)
			}
		}
		k.cliques = append(k.cliques, kenClique{root: c.Root, src: proto.Clone(), sink: proto.Clone(), intra: intra})
	}
	k.estBuf = make([]float64, n)
	return k, nil
}

// Name implements Scheme.
func (k *Ken) Name() string { return k.name }

// Dim implements Scheme.
func (k *Ken) Dim() int { return k.n }

// Partition returns the Disjoint-Cliques partition the scheme runs on
// (read-only; useful for reporting which cliques Build selected).
func (k *Ken) Partition() *cliques.Partition { return k.part }

// BeginEpoch implements EpochScoped: report/suppress/apply events of the
// next Step nest under the replay driver's epoch span.
func (k *Ken) BeginEpoch(sp *obs.Span) { k.span = sp }

// Step implements Scheme: Ken over a perfect channel — every report the
// source chooses reaches the sink as is. See step.
//
//ken:hotpath the per-epoch replay loop
func (k *Ken) Step(truth []float64) ([]float64, StepStats, error) {
	return k.step(truth, nil)
}

// step is the Disjoint-Cliques epoch (§3.2), once for every channel: check
// the readings — the epoch's only finiteness scan, before the channel's
// schedule or any replica moves — then per clique advance both replicas, let
// the source choose its report (every reading on a heartbeat epoch), commit
// the source to what it sent and the sink to what the channel delivers, and
// read the sink's answer. The replicas' moves are the protocol kernel's; the
// channel is perfect for Ken (lossy == nil) and LossyKen's heartbeat schedule
// and Bernoulli loss otherwise.
//
// The returned estimate slice is reused across calls — callers that retain
// it past the next step must copy (Run does). Epochs allocate only what
// they hand back or trace: StepStats.Reported on reporting epochs and the
// events of a traced run (TestAllocBudgetKenReplay pins suppressed epochs
// at zero).
//
//ken:hotpath the per-epoch replay loop
func (k *Ken) step(truth []float64, lossy *LossyKen) ([]float64, StepStats, error) {
	if len(truth) != k.n {
		return nil, StepStats{}, fmt.Errorf("core: truth dim %d, want %d", len(truth), k.n)
	}
	if err := protocol.CheckReadings(truth); err != nil {
		return nil, StepStats{}, err
	}
	heartbeat := lossy != nil && lossy.beginEpoch()
	var start time.Time
	if k.stepObserved {
		start = time.Now()
	}
	est := k.estBuf
	var st StepStats
	for ci := range k.cliques {
		c := &k.cliques[ci]
		c.src.Predict()
		c.sink.Predict()

		// Capture the sink replica's prediction before conditioning — the
		// "what the sink would have believed" side of the audit triple
		// (under loss, its possibly stale view).
		var pred []float64
		if k.tracer != nil {
			//lint:ignore hotalloc tracing epochs capture the pre-conditioning prediction; the untraced path never reaches this
			pred = append([]float64(nil), c.sink.Mean()...)
		}

		var idx []int
		var vals []float64
		var err error
		if heartbeat {
			idx, vals, err = c.src.Full(truth, nil)
		} else {
			idx, vals, err = k.choose(c, truth)
		}
		if err != nil {
			return nil, StepStats{}, err
		}
		// The source believes everything it sent; the sink only what arrives.
		if err := c.src.Commit(idx, vals); err != nil {
			return nil, StepStats{}, err
		}
		dIdx, dVals := idx, vals
		var lost []int
		if lossy != nil && !heartbeat {
			dIdx, dVals, lost = lossy.lose(c, idx, vals)
		}
		if err := c.sink.Commit(dIdx, dVals); err != nil {
			return nil, StepStats{}, err
		}

		st.ValuesReported += len(idx)
		members := c.src.Members()
		for _, i := range idx {
			//lint:ignore hotalloc the reported-attribute list is handed to the caller, who may keep it; suppressed epochs never enter this loop
			st.Reported = append(st.Reported, members[i])
		}
		st.IntraCost += c.intra
		st.Bytes += obs.WireBytesPerValue * len(idx)
		if k.top == nil {
			st.SinkCost += float64(len(idx))
		} else {
			st.SinkCost += float64(len(idx)) * k.top.CommToBase(c.root)
		}
		//lint:ignore hotalloc counter increments are allocation-free; the allocating trace branch inside is guarded by tracer == nil
		k.observeClique(ci, c, idx, vals, dIdx, dVals, lost, pred)
		c.sink.Scatter(est)
	}
	k.stepN++
	if k.stepObserved {
		k.mStepSeconds.Observe(time.Since(start))
	}
	return est, st, nil
}

// observeClique feeds one clique's report decision into the metrics and
// tracer. Counter handles are nil-safe; the trace branch, which allocates
// the attr and payload slices, is guarded so the unobserved path allocates
// nothing. pred is the sink replica's prediction captured before
// conditioning; (dIdx, dVals) is the part of the report (idx, vals) that
// actually reached the sink (all of it in the lossless scheme) and lost the
// global attributes that did not. When a replay epoch span is active the
// report becomes a child span and the sink apply and any loss its
// grandchildren, giving the auditor the report → apply causal chain;
// otherwise events are emitted unspanned.
func (k *Ken) observeClique(ci int, c *kenClique, idx []int, vals []float64, dIdx []int, dVals []float64, lost []int, pred []float64) {
	members, eps := c.src.Members(), c.src.Eps()
	k.mValues.Add(int64(len(idx)))
	k.mSuppressed.Add(int64(len(members) - len(idx)))
	if len(idx) > 0 {
		k.mReportMsgs.Inc()
	}
	if k.tracer == nil {
		return
	}
	var rs *obs.Span
	if len(idx) > 0 {
		values := append([]float64(nil), vals...)
		epsR := make([]float64, len(idx))
		preds := make([]float64, len(idx))
		for j, i := range idx {
			epsR[j], preds[j] = eps[i], pred[i]
		}
		ev := obs.Event{
			Type: obs.EvReport, Step: k.stepN, Clique: ci, Node: c.root,
			Attrs: globalAttrs(members, idx), Values: values,
			Payload: &obs.Payload{
				Predicted: preds, Observed: values, Eps: epsR,
				Bytes: obs.WireBytesPerValue * len(idx),
			},
		}
		if k.span.Active() {
			rs = k.span.Child()
			rs.Emit(ev)
		} else {
			k.tracer.Emit(ev)
		}
	}
	if len(idx) < len(members) {
		supp := make([]int, 0, len(members)-len(idx))
		next := 0
		for i, g := range members {
			if next < len(idx) && idx[next] == i {
				next++
				continue
			}
			supp = append(supp, g)
		}
		k.emit(k.span, obs.Event{
			Type: obs.EvSuppress, Step: k.stepN, Clique: ci, Node: c.root,
			Attrs: supp,
		})
	}
	if len(dIdx) > 0 {
		k.emit(rs.Child(), obs.Event{
			Type: obs.EvApply, Step: k.stepN, Clique: ci, Node: -1,
			Attrs: globalAttrs(members, dIdx), Values: append([]float64(nil), dVals...), N: len(dIdx),
		})
	}
	if len(lost) > 0 {
		k.emit(rs.Child(), obs.Event{
			Type: obs.EvDrop, Step: k.stepN, Clique: ci, Node: c.root,
			Attrs: lost, Detail: "loss",
		})
	}
}

// globalAttrs maps a report's clique-local indices to global attributes.
func globalAttrs(members, idx []int) []int {
	out := make([]int, len(idx))
	for j, i := range idx {
		out[j] = members[i]
	}
	return out
}

// emit sends ev through sp when it is an active span and through the bare
// tracer otherwise.
func (k *Ken) emit(sp *obs.Span, ev obs.Event) {
	if sp.Active() {
		sp.Emit(ev)
	} else {
		k.tracer.Emit(ev)
	}
}

// emitResync traces a heartbeat re-synchronisation (lossy wrapper).
func (k *Ken) emitResync(step int64) {
	if k.tracer == nil {
		return
	}
	k.emit(k.span, obs.Event{Type: obs.EvResync, Step: step, Clique: -1, Node: -1})
}

// choose runs the configured report policy on the clique's source replica:
// the kernel's greedy search by default, §6's probabilistic relaxation or
// the exact subset enumeration (ablation) when configured. All return the
// report as a sorted pair of local indices and readings.
func (k *Ken) choose(c *kenClique, truth []float64) ([]int, []float64, error) {
	switch {
	case k.prob != nil:
		return k.chooseProbabilistic(c, truth)
	case k.exhaustive:
		return chooseExhaustive(c.src, truth)
	}
	return c.src.Choose(truth, nil)
}

// chooseProbabilistic implements §6's relaxed step function: attributes
// within bounds are never reported; violating attributes flip a coin whose
// success probability rises with the violation ratio, so small overshoots
// are sometimes suppressed while gross ones almost always go out. Coins are
// flipped in ascending attribute order.
func (k *Ken) chooseProbabilistic(c *kenClique, truth []float64) ([]int, []float64, error) {
	mean, local, eps := c.src.Mean(), c.src.Gather(truth), c.src.Eps()
	var idx []int
	var vals []float64
	for i := range local {
		ratio := math.Abs(mean[i]-local[i]) / eps[i]
		if ratio <= 1 {
			continue
		}
		p := 1 - math.Exp(-k.prob.Steepness*(ratio-1))
		k.mProbFlips.Inc()
		if k.rng.Float64() < p {
			idx = append(idx, i)
			vals = append(vals, local[i])
		} else {
			// A bound violation survived the coin flip unreported — the
			// stochastic relaxation §6 trades for extra savings.
			k.mProbSuppress.Inc()
		}
	}
	return idx, vals, nil
}

// chooseExhaustive finds the smallest report (the first in index order among
// equals) that restores ε-accuracy, by enumerating subsets in order of
// increasing size against the model's from-scratch MeanGiven. Exponential in
// the clique size; for small cliques and for validating the greedy search.
func chooseExhaustive(src *protocol.Kernel, truth []float64) ([]int, []float64, error) {
	m, local, eps := src.Model(), src.Gather(truth), src.Eps()
	n := len(local)
	if n > 20 {
		return nil, nil, fmt.Errorf("core: exhaustive subset search infeasible for dim %d", n)
	}
	for size := 0; size <= n; size++ {
		idx := make([]int, size)
		vals := make([]float64, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			for j, i := range idx {
				vals[j] = local[i]
			}
			mean, err := m.MeanGiven(idx, vals)
			if err != nil {
				return nil, nil, err
			}
			if model.WithinBounds(mean, local, eps) {
				return idx, vals, nil
			}
			// Next combination in lexicographic order.
			i := size - 1
			for i >= 0 && idx[i] == n-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	// Unreachable: the full set always satisfies the bounds.
	return nil, nil, errors.New("core: no satisfying subset found")
}
