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
	// FitCfg controls per-clique model learning (model.FitLinearGaussian).
	FitCfg model.FitConfig
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

// Ken is the paper's architecture: replicated dynamic probabilistic models
// per clique, with the source transmitting minimal value subsets on
// prediction misses (§3.2). It is the protocol's epoch loop over a perfect
// channel — every report the source chooses reaches the sink as is — plus
// the message accounting of the paper's figures.
type Ken struct {
	name   string
	n      int
	part   *cliques.Partition
	loop   *protocol.Loop
	top    *network.Topology
	intra  float64 // per-step cost of collecting every clique at its root
	prob   *ProbConfig
	rng    *rand.Rand
	estBuf []float64 // Step's returned estimate vector, reused across epochs
	// chooseProbabilistic's report, reused clique by clique like the
	// kernel's scratch.
	probIdx  []int
	probVals []float64

	// Observability handles, resolved once in NewKen; all zero (and
	// therefore no-ops) when KenConfig.Obs is unset.
	span          obs.Span // current epoch span, set by Run via BeginEpoch
	stepN         int64
	mValues       obs.Counter // ken_values_reported_total
	mSuppressed   obs.Counter // ken_values_suppressed_total
	mReportMsgs   obs.Counter // ken_report_messages_total
	mProbFlips    obs.Counter // ken_prob_flips_total
	mProbSuppress obs.Counter // ken_prob_suppressed_total
	mStepSeconds  obs.Timer   // ken_step_seconds
	mHeartbeats   obs.Counter // ken_heartbeats_total (loop record)
	mLostReports  obs.Counter // ken_lost_reports_total (loop record)
	stepObserved  bool        // true when mStepSeconds is live
}

var _ Scheme = (*Ken)(nil)

// NewKen fits per-clique models on the training data and wires up the
// replicated source/sink pairs.
func NewKen(cfg KenConfig) (*Ken, error) { return newKen(cfg, protocol.Perfect{}) }

// newKen builds Ken's loop over the given channel.
func newKen(cfg KenConfig, ch protocol.Channel) (*Ken, error) {
	src, roots, err := cfg.Partition.Fit(cfg.Train, cfg.Eps, func(cols [][]float64) (model.Model, error) {
		return model.FitLinearGaussian(cols, cfg.FitCfg)
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n := len(cfg.Eps)
	if cfg.Topology != nil && cfg.Topology.N() != n {
		return nil, fmt.Errorf("core: topology has %d nodes, data has %d", cfg.Topology.N(), n)
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("DjC%d", cfg.Partition.MaxCliqueSize())
	}
	k := &Ken{name: name, n: n, part: cfg.Partition, top: cfg.Topology, prob: cfg.Prob, estBuf: make([]float64, n)}
	k.loop = &protocol.Loop{
		Src: src, Roots: roots, N: n,
		Channel: ch, Choose: (*protocol.Kernel).Choose, Tracer: cfg.Obs.Tracer(),
	}
	k.loop.Mirror()
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
	// The report policy: the kernel's greedy search by default, §6's
	// probabilistic relaxation or the exact subset enumeration (ablation)
	// when configured.
	switch {
	case cfg.Prob != nil:
		if cfg.Prob.Steepness <= 0 {
			return nil, fmt.Errorf("core: probabilistic reporting needs positive steepness, got %v", cfg.Prob.Steepness)
		}
		k.rng = rand.New(rand.NewSource(cfg.Prob.Seed))
		k.loop.Choose = k.chooseProbabilistic
	case cfg.Exhaustive:
		k.loop.Choose = chooseExhaustive
	}
	if cfg.Topology != nil {
		for _, c := range cfg.Partition.Cliques {
			intra := 0.0 // summed per clique first, as the figures' goldens were
			for _, g := range c.Members {
				intra += cfg.Topology.Comm(g, c.Root)
			}
			k.intra += intra
		}
	}
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
func (k *Ken) BeginEpoch(sp obs.Span) { k.span = sp }

// Step implements Scheme: one epoch of the protocol loop (§3.2) over the
// scheme's channel, then the epoch's message accounting, read from the
// loop's record; an epoch that fails publishes none of it. The readings are
// checked before the channel's schedule or any replica moves.
//
// The estimate and StepStats.Reported are views (see Scheme.Step): the
// scheme's estimate buffer and the loop's own record. An epoch allocates
// only the events of a traced run (TestAllocBudgetKenReplay pins every
// untraced epoch at zero).
func (k *Ken) Step(truth []float64) ([]float64, StepStats, error) {
	if err := k.loop.Check(truth); err != nil {
		return nil, StepStats{}, err
	}
	var start time.Time
	if k.stepObserved {
		start = time.Now()
	}
	if err := k.loop.Epoch(k.stepN, k.span, truth); err != nil {
		return nil, StepStats{}, err
	}
	st := StepStats{IntraCost: k.intra}
	for ci, sent := range k.loop.Sent {
		st.ValuesReported += sent
		if k.top == nil {
			st.SinkCost += float64(sent)
		} else {
			st.SinkCost += float64(sent) * k.top.CommToBase(k.loop.Roots[ci])
		}
		if sent > 0 {
			k.mReportMsgs.Inc()
		}
	}
	st.Bytes = obs.WireBytesPerValue * st.ValuesReported
	st.Reported = k.loop.Reported
	k.mValues.Add(int64(st.ValuesReported))
	k.mSuppressed.Add(int64(k.n - st.ValuesReported))
	if k.loop.Heartbeat {
		k.mHeartbeats.Inc()
	}
	k.mLostReports.Add(int64(k.loop.Lost))
	k.loop.Estimates(k.estBuf)
	k.stepN++
	if k.stepObserved {
		k.mStepSeconds.Observe(time.Since(start))
	}
	return k.estBuf, st, nil
}

// chooseProbabilistic implements §6's relaxed step function: attributes
// within bounds are never reported; violating attributes flip a coin whose
// success probability rises with the violation ratio, so small overshoots
// are sometimes suppressed while gross ones almost always go out. Coins are
// flipped in ascending attribute order. Like the enumeration below it is a
// policy for fully informed roots and ignores the candidate set.
func (k *Ken) chooseProbabilistic(src *protocol.Kernel, truth []float64, _ []int) ([]int, []float64, error) {
	mean, local, eps := src.Mean(), src.Gather(truth), src.Eps()
	idx, vals := k.probIdx[:0], k.probVals[:0]
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
	k.probIdx, k.probVals = idx, vals
	return idx, vals, nil
}

// chooseExhaustive finds the smallest report (the first in index order among
// equals) that restores ε-accuracy, by enumerating subsets in order of
// increasing size, each answered by the model's evaluator. Exponential in
// the clique size; for small cliques and for validating the greedy search.
func chooseExhaustive(src *protocol.Kernel, truth []float64, _ []int) ([]int, []float64, error) {
	m, local, eps := src.Model(), src.Gather(truth), src.Eps()
	n := len(local)
	if n > 20 {
		return nil, nil, fmt.Errorf("core: exhaustive subset search infeasible for dim %d", n)
	}
	mean := make([]float64, n)
	for size := 0; size <= n; size++ {
		idx := make([]int, size)
		vals := make([]float64, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			if err := m.CondReset(); err != nil {
				return nil, nil, err
			}
			for j, i := range idx {
				vals[j] = local[i]
				if err := m.CondAdd(i, vals[j]); err != nil {
					return nil, nil, err
				}
			}
			if err := m.CondMeanInto(mean); err != nil {
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
