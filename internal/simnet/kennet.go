package simnet

import (
	"fmt"
	"math"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/protocol"
)

// Program is a distributed data-collection protocol executing over the
// simulated network, one Epoch call per sampling period.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Epoch feeds the ground-truth readings of all sensor nodes for one
	// sampling period and returns the base station's view.
	Epoch(truth []float64) (EpochResult, error)
}

// EpochResult is the base station's per-epoch outcome.
type EpochResult struct {
	// Estimates is the base station's answer vector (one per node).
	Estimates []float64
	// ValuesDelivered counts attribute values that reached the base.
	ValuesDelivered int
	// Violations counts nodes whose estimate missed ε this epoch — caused
	// only by message loss or dead nodes; zero on a clean network.
	Violations int
	// Stale flags estimates served from a clique the base-station failure
	// detector currently suspects — graceful degradation instead of
	// silently serving possibly-dead sources. Nil when failure detection
	// is disabled (KenNetConfig.FailureAlpha == 0).
	Stale []bool
}

// NewProgram installs on net the node program the binaries' -program flags
// name: "tinydb", "avg" or "ken". part and cfg concern ken alone, and
// tinydb needs no training data either.
func NewProgram(name string, net *Network, part *cliques.Partition, train [][]float64, eps []float64, fitCfg model.FitConfig, cfg KenNetConfig) (Program, error) {
	switch name {
	case "tinydb":
		return NewDistributedTinyDB(net, eps)
	case "avg":
		return NewDistributedAverage(net, train, eps, fitCfg)
	case "ken":
		return NewDistributedKenConfig(net, part, train, eps, fitCfg, cfg)
	default:
		return nil, fmt.Errorf("simnet: unknown program %q (tinydb, avg or ken)", name)
	}
}

// Totals is what Run tallies over a replay.
type Totals struct {
	Epochs        int // epochs executed
	Delivered     int // values that reached the base
	Violations    int // node-epochs whose estimate missed ε
	StaleReadings int // node-epochs the failure detector flagged stale
	FirstDeath    int // 1-based epoch of the first battery death, -1 when every node survived
}

// Run steps prog over the rows, one epoch each, on the network it was built
// on and tallies the base station's outcomes. Use a fresh Network/Program
// pair per run.
func Run(net *Network, prog Program, rows [][]float64) (Totals, error) {
	tot := Totals{FirstDeath: -1}
	for _, row := range rows {
		res, err := prog.Epoch(row)
		if err != nil {
			return tot, err
		}
		tot.Epochs++
		tot.Delivered += res.ValuesDelivered
		tot.Violations += res.Violations
		for _, stale := range res.Stale {
			if stale {
				tot.StaleReadings++
			}
		}
		if tot.FirstDeath < 0 && net.AliveCount() < net.top.N() {
			tot.FirstDeath = tot.Epochs
		}
	}
	return tot, nil
}

// KenNetConfig tunes DistributedKen's reliability layer. The zero value
// reproduces the bare protocol (no heartbeats, no failure detection);
// message-level ARQ is configured separately on the Radio.
type KenNetConfig struct {
	// HeartbeatEvery makes every HeartbeatEvery-th epoch a heartbeat: the
	// root ships ALL values it collected (not the minimal report set),
	// re-synchronising the sink replica so divergence after loss is
	// transient per the Markov argument of §6. 0 disables.
	HeartbeatEvery int
	// FailureAlpha, when > 0, wires one core.FailureDetector per clique
	// at the base station, fed by report arrivals: a clique whose silence
	// is less probable than FailureAlpha under its fitted report rate is
	// suspected and its estimates are flagged Stale in EpochResult.
	FailureAlpha float64
}

// DistributedKen runs Ken as true node programs over the simulator:
// clique members unicast their readings to the clique root every epoch
// (intra-source), the root executes the source replica and unicasts each
// report value to the base (source-sink, one data unit per message as in
// §5.2), and the base executes the sink replicas.
//
// Unlike core.Ken — which scores an idealised protocol — DistributedKen
// inherits the network's failure modes: collection messages from dying
// members leave the root partially informed, lost reports desynchronise
// the replicas, and dead roots silence whole cliques. It is the same epoch
// loop over the packet radio as its channel: the root's candidate set is
// whatever its members' unicasts delivered, the sink commits whatever of the
// report Send gets through, and the base watches each clique's
// arrivals with a failure detector.
type DistributedKen struct {
	net  *Network
	loop *protocol.Loop
	eps  []float64
	// Beat schedules the heartbeats (KenNetConfig.HeartbeatEvery) and is the
	// channel's Heartbeat.
	protocol.Beat
	det []*core.FailureDetector // one per clique at the base; nil when detection is off

	// Epoch state: the cliques the detectors suspect, and one clique's
	// scratch — the local attributes whose readings reached the root and the
	// part of the report that reached the base.
	suspected []bool
	avail     []int
	dIdx      []int
	dVals     []float64
}

var _ Program = (*DistributedKen)(nil)

// NewDistributedKenConfig fits per-clique models and installs the node
// programs; the zero KenNetConfig is the bare protocol. Instrument the
// network before constructing the program so the failure detectors share
// its tracer.
func NewDistributedKenConfig(net *Network, part *cliques.Partition, train [][]float64, eps []float64, fitCfg model.FitConfig, cfg KenNetConfig) (*DistributedKen, error) {
	if net == nil {
		return nil, fmt.Errorf("simnet: nil network")
	}
	if cfg.HeartbeatEvery < 0 {
		return nil, fmt.Errorf("simnet: heartbeat interval %d must be >= 0", cfg.HeartbeatEvery)
	}
	if cfg.FailureAlpha < 0 || cfg.FailureAlpha >= 1 {
		return nil, fmt.Errorf("simnet: failure alpha %v outside [0,1)", cfg.FailureAlpha)
	}
	src, roots, err := part.Fit(train, eps, fitCfg)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	n, k := len(eps), part.MaxCliqueSize()
	if n != net.top.N() {
		return nil, fmt.Errorf("simnet: training dim %d, network has %d nodes", n, net.top.N())
	}
	d := &DistributedKen{
		net: net, eps: append([]float64(nil), eps...), Beat: protocol.Beat{Every: cfg.HeartbeatEvery},
		suspected: make([]bool, len(src)),
		avail:     make([]int, 0, k), dIdx: make([]int, 0, k), dVals: make([]float64, 0, k),
	}
	d.loop = &protocol.Loop{
		Src: src, Roots: roots, N: n,
		Channel: d, Choose: (*protocol.Kernel).Choose, Tracer: net.tracer,
	}
	d.loop.Mirror()
	if cfg.FailureAlpha > 0 {
		for ci, proto := range src {
			det, err := core.NewFailureDetector(reportRate(proto, train, cfg.HeartbeatEvery), cfg.FailureAlpha)
			if err != nil {
				return nil, fmt.Errorf("simnet: failure detector for clique %v: %w", proto.Members(), err)
			}
			det.Instrument(net.tracer, ci, roots[ci])
			d.det = append(d.det, det)
		}
	}
	return d, nil
}

// reportRate estimates a clique's per-epoch report probability by
// replaying the training rows through a clone of the fitted replica and
// counting epochs with a non-empty minimal report set — the m_C the
// failure detector needs (§6). Heartbeats guarantee a report at least
// every hb epochs, so they floor the rate; the result is clamped away
// from {0,1} to keep the detector's log-probabilities finite.
func reportRate(proto *protocol.Kernel, rows [][]float64, hb int) float64 {
	clone := proto.Clone()
	reports := 0
	for _, row := range rows {
		sent, err := clone.Advance(row)
		if err != nil {
			break // fall through to the clamped estimate so far
		}
		if sent > 0 {
			reports++
		}
	}
	rate := 0.0
	if len(rows) > 0 {
		rate = float64(reports) / float64(len(rows))
	}
	if hb > 0 {
		if floor := 1 / float64(hb); rate < floor {
			rate = floor
		}
	}
	return math.Min(0.98, math.Max(0.02, rate))
}

// Name implements Program.
func (d *DistributedKen) Name() string { return "ken" }

// Collect implements protocol.Channel, the intra-source phase: each live
// member ships its reading to the clique root (the root's own reading is
// local). Members cannot know whether the root is still alive, so they
// transmit regardless, burning Tx energy; the message dies at a dead
// receiver, and a dead root collects nothing — the empty, never nil, set.
func (d *DistributedKen) Collect(ci int, truth []float64) []int {
	root, sp := d.loop.Roots[ci], d.net.EpochSpan()
	rootAlive := d.net.Alive(root)
	avail := d.avail[:0]
	for i, g := range d.loop.Src[ci].Members() {
		if g == root {
			if rootAlive {
				avail = append(avail, i)
			}
			continue
		}
		if d.net.Send(Message{From: g, To: root, Attrs: []int{g}, Values: []float64{truth[g]}}, sp) {
			avail = append(avail, i)
		}
	}
	return avail
}

// Carry implements protocol.Channel, the source-sink phase: the root
// unicasts each report value to the base, the unicasts (and any loss along
// the way) tracing under the report's span so the auditor can tell a silent
// divergence from an explained one. The clique's failure detector watches
// what arrives.
func (d *DistributedKen) Carry(ci int, idx []int, vals []float64, under obs.Span) ([]int, []float64, []int) {
	root, members := d.loop.Roots[ci], d.loop.Src[ci].Members()
	dIdx, dVals := d.dIdx[:0], d.dVals[:0]
	for j, i := range idx {
		if d.net.Send(Message{From: root, To: d.net.Base(), Attrs: []int{members[i]}, Values: []float64{vals[j]}}, under) {
			dIdx = append(dIdx, i)
			dVals = append(dVals, vals[j])
		}
	}
	if d.det != nil {
		d.suspected[ci] = d.det[ci].Observe(len(dIdx) > 0)
	}
	return dIdx, dVals, nil
}

// Epoch implements Program: one epoch of the protocol loop over the radio —
// both replicas advance even when a root is dead, the sink keeps predicting
// from the model (that is the point of Ken) — then the base's answer. A
// suspected clique's estimates are still served (the model is all the base
// has) but flagged stale instead of being passed off as live data.
func (d *DistributedKen) Epoch(truth []float64) (EpochResult, error) {
	sp, err := d.net.openEpoch(truth)
	if err != nil {
		return EpochResult{}, err
	}
	if err := d.loop.Epoch(int64(d.net.stats.Epochs), sp, truth); err != nil {
		return EpochResult{}, err
	}
	res := EpochResult{Estimates: make([]float64, len(d.eps)), ValuesDelivered: len(d.loop.Reported) - d.loop.Lost}
	d.loop.Estimates(res.Estimates)
	if d.det != nil {
		res.Stale = make([]bool, len(d.eps))
		for ci, suspected := range d.suspected {
			if suspected {
				for _, g := range d.loop.Src[ci].Members() {
					res.Stale[g] = true
				}
			}
		}
	}
	d.net.closeEpoch(sp, &res, truth, d.eps, obs.WireBytesPerValue*len(d.loop.Reported))
	return res, nil
}

// DistributedTinyDB is the exact-collection node program: every live node
// unicasts its reading to the base each epoch.
type DistributedTinyDB struct {
	net  *Network
	n    int
	eps  []float64
	last []float64 // base's last delivered value per node
	seen []bool
}

var _ Program = (*DistributedTinyDB)(nil)

// NewDistributedTinyDB installs the TinyDB-style program.
func NewDistributedTinyDB(net *Network, eps []float64) (*DistributedTinyDB, error) {
	if net == nil {
		return nil, fmt.Errorf("simnet: nil network")
	}
	n := net.top.N()
	if len(eps) != n {
		return nil, fmt.Errorf("simnet: eps dim %d, want %d", len(eps), n)
	}
	return &DistributedTinyDB{
		net:  net,
		n:    n,
		eps:  append([]float64(nil), eps...),
		last: make([]float64, n),
		seen: make([]bool, n),
	}, nil
}

// Name implements Program.
func (d *DistributedTinyDB) Name() string { return "tinydb" }

// Epoch implements Program.
func (d *DistributedTinyDB) Epoch(truth []float64) (EpochResult, error) {
	sp, err := d.net.openEpoch(truth)
	if err != nil {
		return EpochResult{}, err
	}
	res := EpochResult{Estimates: make([]float64, d.n)}
	for i := 0; i < d.n; i++ {
		if d.net.Alive(i) &&
			d.net.Send(Message{From: i, To: d.net.Base(), Attrs: []int{i}, Values: []float64{truth[i]}}, sp) {
			d.last[i] = truth[i]
			d.seen[i] = true
			res.ValuesDelivered++
		}
		res.Estimates[i] = d.last[i]
		// A node never heard from is a miss even where its zero estimate
		// happens to lie within ε of the truth.
		if !d.seen[i] && math.Abs(truth[i]) <= d.eps[i] {
			res.Violations++
		}
	}
	d.net.closeEpoch(sp, &res, truth, d.eps, 0)
	return res, nil
}
