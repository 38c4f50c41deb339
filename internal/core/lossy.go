package core

import (
	"fmt"
	"math/rand"

	"ken/internal/cliques"
	"ken/internal/obs"
)

// LossyConfig parameterises the message-loss robustness extension (§6
// "Robustness to Message Loss"). Reports are dropped independently with
// LossRate; every HeartbeatEvery steps the source transmits all current
// values as a heartbeat, re-synchronising the replicas. Because the models
// are Markovian, conditioning both replicas on the full heartbeat makes the
// future independent of the divergent past — inconsistencies are transient.
type LossyConfig struct {
	// LossRate is the probability a report message never reaches the sink.
	LossRate float64
	// HeartbeatEvery triggers a full-value heartbeat each time this many
	// steps elapse; 0 disables heartbeats.
	HeartbeatEvery int
	// Seed drives the loss coin flips.
	Seed int64
}

// LossyKen runs the Ken protocol over an unreliable channel: Ken's epoch
// loop with a delivery policy that drops report values by a seeded coin and
// ships every reading, reliably, on heartbeat epochs. The source conditions
// its replica on everything it sends (it cannot know what was lost); the
// sink conditions only on what arrives, so the replicas diverge until the
// next heartbeat. Run's audit counts the resulting ε violations.
//
// The report itself is chosen by the wrapped Ken's policy, so
// KenConfig.Exhaustive applies here too. NewLossyKen refuses KenConfig.Prob:
// the two relaxations are not combined.
type LossyKen struct {
	ken  *Ken
	cfg  LossyConfig
	rng  *rand.Rand
	step int

	// dIdx/dVals hold the delivered part of one clique's report between
	// lose and the sink's commit.
	dIdx  []int
	dVals []float64

	// Heartbeats counts heartbeat rounds issued.
	Heartbeats int
	// LostMessages counts dropped report values.
	LostMessages int
}

var _ Scheme = (*LossyKen)(nil)

// NewLossyKen builds a Ken scheme (from kcfg) wrapped with loss injection.
func NewLossyKen(kcfg KenConfig, lcfg LossyConfig) (*LossyKen, error) {
	if lcfg.LossRate < 0 || lcfg.LossRate >= 1 {
		return nil, fmt.Errorf("core: loss rate %v outside [0,1)", lcfg.LossRate)
	}
	if lcfg.HeartbeatEvery < 0 {
		return nil, fmt.Errorf("core: negative heartbeat interval %d", lcfg.HeartbeatEvery)
	}
	if kcfg.Prob != nil {
		return nil, fmt.Errorf("core: probabilistic reporting and loss injection cannot be combined")
	}
	k, err := NewKen(kcfg)
	if err != nil {
		return nil, err
	}
	return &LossyKen{
		ken:   k,
		cfg:   lcfg,
		rng:   rand.New(rand.NewSource(lcfg.Seed)),
		dIdx:  make([]int, 0, k.part.MaxCliqueSize()),
		dVals: make([]float64, 0, k.part.MaxCliqueSize()),
	}, nil
}

// Name implements Scheme.
func (l *LossyKen) Name() string { return l.ken.name + "-lossy" }

// Dim implements Scheme.
func (l *LossyKen) Dim() int { return l.ken.n }

// Partition returns the wrapped scheme's Disjoint-Cliques partition.
func (l *LossyKen) Partition() *cliques.Partition { return l.ken.Partition() }

// BeginEpoch implements EpochScoped by forwarding the replay driver's
// epoch span to the wrapped scheme.
func (l *LossyKen) BeginEpoch(sp *obs.Span) { l.ken.BeginEpoch(sp) }

// Step implements Scheme: one epoch of Ken's loop over the lossy channel.
// The report policy is the wrapped Ken's — greedy, or the exact enumeration
// when KenConfig.Exhaustive is set.
func (l *LossyKen) Step(truth []float64) ([]float64, StepStats, error) {
	return l.ken.step(truth, l)
}

// beginEpoch advances the heartbeat schedule for an epoch whose readings
// Ken's step has accepted and reports whether it is a heartbeat. Heartbeats
// carry every clique value and are delivered reliably (acked end-to-end);
// every other epoch's reports pass through lose.
func (l *LossyKen) beginEpoch() (heartbeat bool) {
	l.step++
	if l.cfg.HeartbeatEvery == 0 || l.step%l.cfg.HeartbeatEvery != 0 {
		return false
	}
	l.Heartbeats++
	l.ken.mHeartbeats.Inc()
	l.ken.emitResync(int64(l.step))
	return true
}

// lose is the Bernoulli channel's effect on one clique's report: what of
// (idx, vals) reaches the sink, and which global attributes were lost on the
// way. Each reported value is dropped independently with LossRate; coins are
// flipped in ascending attribute order so a fixed seed reproduces the same
// loss pattern run after run, and none is flipped on a lossless channel.
// The lost list feeds the trace's drop event and is only built for one.
//
//ken:hotpath filters into the wrapper's delivery buffers
func (l *LossyKen) lose(c *kenClique, idx []int, vals []float64) ([]int, []float64, []int) {
	if l.cfg.LossRate == 0 {
		return idx, vals, nil
	}
	dIdx, dVals := l.dIdx[:0], l.dVals[:0]
	var lost []int
	for j, i := range idx {
		if l.rng.Float64() < l.cfg.LossRate {
			l.LostMessages++
			l.ken.mLostReports.Inc()
			if l.ken.tracer != nil {
				//lint:ignore hotalloc traced epochs hand the lost attributes to the drop event; the untraced path never reaches this
				lost = append(lost, c.src.Members()[i])
			}
			continue
		}
		dIdx = append(dIdx, i)
		dVals = append(dVals, vals[j])
	}
	return dIdx, dVals, lost
}
