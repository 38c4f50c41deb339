package core

import (
	"fmt"
	"math/rand"

	"ken/internal/obs"
	"ken/internal/protocol"
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
// loop (and report policy, so KenConfig.Exhaustive applies here too) with
// LossyKen itself as the channel — it drops report values by a seeded coin
// and ships every reading, reliably, on heartbeat epochs. The source
// conditions its replica on everything it sends (it cannot know what was
// lost); the sink conditions only on what arrives, so the replicas diverge
// until the next heartbeat. Run's audit counts the resulting ε violations.
// NewLossyKen refuses KenConfig.Prob: the two relaxations are not combined.
type LossyKen struct {
	*Ken
	// Beat is the heartbeat schedule and the channel's Heartbeat; the loop
	// records each epoch's bit and lost values, and Step publishes them.
	protocol.Beat
	rate float64
	rng  *rand.Rand

	// dIdx/dVals hold the delivered part of one clique's report between
	// Carry and the sink's commit; they stop growing at the largest clique.
	dIdx  []int
	dVals []float64
}

var _ Scheme = (*LossyKen)(nil)

// NewLossyKen builds a Ken scheme (from kcfg) over the lossy channel.
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
	l := &LossyKen{
		Beat: protocol.Beat{Every: lcfg.HeartbeatEvery},
		rate: lcfg.LossRate,
		rng:  rand.New(rand.NewSource(lcfg.Seed)),
	}
	var err error
	if l.Ken, err = newKen(kcfg, l); err != nil {
		return nil, err
	}
	return l, nil
}

// Name implements Scheme.
func (l *LossyKen) Name() string { return l.name + "-lossy" }

// Collect implements protocol.Channel: loss strikes reports only, every root
// hears all its members.
func (l *LossyKen) Collect(int, []float64) []int { return nil }

// Carry implements protocol.Channel, the Bernoulli channel's effect on one
// clique's report: each reported value is dropped independently with the
// loss rate; coins are flipped in ascending attribute order so a fixed seed
// reproduces the same loss pattern run after run, and none is flipped on a
// lossless channel or a heartbeat — heartbeats carry every clique value and
// are delivered reliably (acked end-to-end). The lost list feeds the trace's
// drop event and is only built for one.
func (l *LossyKen) Carry(ci int, idx []int, vals []float64, _ obs.Span) ([]int, []float64, []int) {
	if l.rate == 0 || l.loop.Heartbeat {
		return idx, vals, nil
	}
	dIdx, dVals := l.dIdx[:0], l.dVals[:0]
	var lost []int
	for j, i := range idx {
		if l.rng.Float64() < l.rate {
			if l.loop.Tracer != nil {
				lost = append(lost, l.loop.Src[ci].Members()[i])
			}
			continue
		}
		dIdx = append(dIdx, i)
		dVals = append(dVals, vals[j])
	}
	l.dIdx, l.dVals = dIdx, dVals
	return dIdx, dVals, lost
}
