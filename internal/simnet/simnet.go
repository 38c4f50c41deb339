// Package simnet is a node-level sensor network simulator: hop-by-hop
// message forwarding over the link graph, per-hop loss, per-node radio
// energy accounting, battery exhaustion and route repair around dead
// nodes.
//
// The paper's evaluation counts messages as an energy proxy ("a count of
// messages sent also serves as a fair proxy for energy expended", §5.2);
// this package closes the remaining gap to a deployment: it charges
// transmit/receive energy per byte (Telos-class radios spend an order of
// magnitude more energy on the radio than on computation, §1), drains
// per-node batteries, and lets the distributed Ken programs of kennet.go
// run until nodes start dying — reproducing the paper's motivating
// anecdote of the Sonoma deployment whose chatty nodes "exhausted their
// batteries in only a few days".
//
// The simulator is epoch-synchronous: one sampling epoch is one round of
// message exchange. Radio latency (milliseconds) is negligible against the
// sampling interval (minutes to hours), so no finer event queue is needed.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/protocol"
)

// Radio holds the energy/cost parameters of the simulated radio and node.
// The defaults (DefaultRadio) are Telos-mote-like orders of magnitude:
// ~0.2 µJ per bit transmitted or received, tiny idle draw, and a pair of
// AA cells.
type Radio struct {
	// TxPerByte and RxPerByte are Joules per payload byte sent/received.
	TxPerByte, RxPerByte float64
	// OverheadBytes is the per-message header cost (preamble, addressing,
	// CRC) added to every transmission.
	OverheadBytes int
	// IdlePerEpoch is the Joules a live node burns per epoch on sensing,
	// CPU and duty-cycled listening, independent of traffic.
	IdlePerEpoch float64
	// BatteryJ is each node's initial energy budget.
	BatteryJ float64
	// LossRate is the independent per-hop probability of losing a message.
	LossRate float64
	// ARQ configures link/transport-layer reliability for SendReliable.
	ARQ ARQConfig
}

// ARQConfig parameterises stop-and-wait ARQ: after a SendReliable the
// destination routes a small ack back (full per-hop energy both ways);
// on silence the sender backs off and retransmits. MaxRetries == 0
// disables ARQ entirely, making SendReliable identical to Send.
type ARQConfig struct {
	// MaxRetries bounds retransmissions per message (0 = ARQ off).
	MaxRetries int
	// AckBytes is the ack payload size; header overhead is added per hop.
	AckBytes int
	// RetryBudget caps the total backoff slots spendable per epoch across
	// all messages, so a lossy epoch cannot retransmit unboundedly
	// (0 = unlimited).
	RetryBudget int
}

// DefaultRadio returns Telos-like parameters. With hourly epochs and no
// traffic a node idles for years; a TinyDB-style full dump shortens that
// dramatically.
func DefaultRadio() Radio {
	return Radio{
		TxPerByte:     2e-6,
		RxPerByte:     2e-6,
		OverheadBytes: 16,
		IdlePerEpoch:  3e-4,
		BatteryJ:      20,
		ARQ:           ARQConfig{AckBytes: 2},
	}
}

// Message is a unicast payload routed hop-by-hop from From to To (either
// may be the base station vertex).
type Message struct {
	From, To int
	// Attrs and Values carry reported attribute indices and their
	// readings; 2 bytes per value on the wire (ADC-width, as on motes).
	Attrs  []int
	Values []float64
}

// bytes returns the payload size on the wire.
func (m Message) bytes(overhead int) int {
	return overhead + 2*len(m.Values) + 2*len(m.Attrs)
}

// Stats aggregates network-wide accounting.
type Stats struct {
	Epochs        int
	MessagesSent  int     // link-level transmissions (one per hop)
	BytesSent     int     // link-level bytes
	Delivered     int     // end-to-end data deliveries (acks excluded)
	DroppedLoss   int     // messages lost to per-hop loss
	DroppedNoPath int     // messages dropped for lack of a live route
	Retransmits   int     // ARQ retransmissions issued
	Acks          int     // link-layer acks sent by destinations
	EnergySpent   float64 // total Joules across all nodes
}

// Network simulates the deployment: topology, batteries, loss.
type Network struct {
	top   *network.Topology
	radio Radio
	rng   *rand.Rand

	energy []float64 // remaining J per sensor node (base is mains-powered)
	alive  []bool
	stats  Stats

	// Per-epoch state, reset by BeginEpoch: the backoff slots left (-1 =
	// unlimited), and Stats and the alive count as the epoch opened, which
	// closeEpoch subtracts to publish the epoch's ledger once.
	retxBudget int
	epoch0     Stats
	alive0     int

	// Observability handles (zero and no-op until Instrument is called).
	// The integer counters and the alive gauge advance once per epoch, in
	// closeEpoch; the energy gauge and the message-size histogram per charge
	// and per message.
	tracer     *obs.Tracer
	span       obs.Span      // current epoch span, set by BeginEpoch
	mEpochs    obs.Counter   // simnet_epochs_total
	mMsgs      obs.Counter   // simnet_messages_sent_total
	mBytes     obs.Counter   // simnet_bytes_sent_total
	mDelivered obs.Counter   // simnet_delivered_total
	mDropLoss  obs.Counter   // simnet_dropped_loss_total
	mDropRoute obs.Counter   // simnet_dropped_noroute_total
	mRetx      obs.Counter   // simnet_retransmits_total
	mAcks      obs.Counter   // simnet_acks_total
	mDeaths    obs.Counter   // simnet_node_deaths_total
	gEnergy    obs.Gauge     // simnet_energy_spent_joules
	gAlive     obs.Gauge     // simnet_alive_nodes
	hMsgBytes  obs.Histogram // simnet_message_bytes
}

// ErrNoRoute is returned internally when no live path exists.
var ErrNoRoute = errors.New("simnet: no live route")

// New builds a simulated network over the topology.
func New(top *network.Topology, radio Radio, seed int64) (*Network, error) {
	if top == nil {
		return nil, errors.New("simnet: nil topology")
	}
	if radio.TxPerByte < 0 || radio.RxPerByte < 0 || radio.BatteryJ <= 0 {
		return nil, fmt.Errorf("simnet: invalid radio parameters %+v", radio)
	}
	if radio.LossRate < 0 || radio.LossRate >= 1 {
		return nil, fmt.Errorf("simnet: loss rate %v outside [0,1)", radio.LossRate)
	}
	if a := radio.ARQ; a.MaxRetries < 0 || a.AckBytes < 0 || a.RetryBudget < 0 {
		return nil, fmt.Errorf("simnet: invalid ARQ parameters %+v", a)
	}
	n := top.N()
	net := &Network{
		top:    top,
		radio:  radio,
		rng:    rand.New(rand.NewSource(seed)),
		energy: make([]float64, n),
		alive:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		net.energy[i] = radio.BatteryJ
		net.alive[i] = true
	}
	return net, nil
}

// Instrument attaches metrics and protocol event tracing to the network.
// Call before the first epoch; a nil observer leaves the network
// unobserved (the default).
func (s *Network) Instrument(ob *obs.Observer) {
	s.tracer = ob.Tracer()
	reg := ob.Registry()
	s.mEpochs = reg.Counter("simnet_epochs_total")
	s.mMsgs = reg.Counter("simnet_messages_sent_total")
	s.mBytes = reg.Counter("simnet_bytes_sent_total")
	s.mDelivered = reg.Counter("simnet_delivered_total")
	s.mDropLoss = reg.Counter("simnet_dropped_loss_total")
	s.mDropRoute = reg.Counter("simnet_dropped_noroute_total")
	s.mRetx = reg.Counter("simnet_retransmits_total")
	s.mAcks = reg.Counter("simnet_acks_total")
	s.mDeaths = reg.Counter("simnet_node_deaths_total")
	s.gEnergy = reg.Gauge("simnet_energy_spent_joules")
	s.gAlive = reg.Gauge("simnet_alive_nodes")
	s.hMsgBytes = reg.Histogram("simnet_message_bytes")
	s.gAlive.Set(float64(s.AliveCount()))
}

// Base returns the base station vertex.
func (s *Network) Base() int { return s.top.Base() }

// Alive reports whether sensor node i still has battery.
func (s *Network) Alive(i int) bool { return s.alive[i] }

// AliveCount returns the number of live sensor nodes.
func (s *Network) AliveCount() int {
	c := 0
	for _, a := range s.alive {
		if a {
			c++
		}
	}
	return c
}

// Energy returns node i's remaining battery in Joules.
func (s *Network) Energy(i int) float64 { return s.energy[i] }

// Stats returns a copy of the accumulated accounting.
func (s *Network) Stats() Stats { return s.stats }

// BeginEpoch charges idle energy to every live node and advances the epoch
// counter. Call once per sampling period before sending traffic. It opens
// the epoch's causal span (inactive when untraced) and returns it so the
// distributed programs above can parent their traffic to it and close it
// with their audit payload.
func (s *Network) BeginEpoch() obs.Span {
	s.epoch0, s.alive0 = s.stats, s.AliveCount()
	s.stats.Epochs++
	if b := s.radio.ARQ.RetryBudget; b > 0 {
		s.retxBudget = b
	} else {
		s.retxBudget = -1
	}
	for i := range s.energy {
		if s.alive[i] {
			s.spend(i, s.radio.IdlePerEpoch)
		}
	}
	s.span = s.tracer.StartEpoch(obs.Event{
		Step: int64(s.stats.Epochs), Clique: -1, Node: -1,
		N: s.AliveCount(), Detail: "simnet",
	})
	return s.span
}

// openEpoch is the prologue of every program's Epoch: a row of the wrong
// width or with a non-finite reading is rejected before anything moves
// (protocol.CheckReadings says why), then the epoch begins.
func (s *Network) openEpoch(truth []float64) (obs.Span, error) {
	if len(truth) != s.top.N() {
		return obs.Span{}, fmt.Errorf("simnet: truth dim %d, want %d", len(truth), s.top.N())
	}
	if err := protocol.CheckReadings(truth); err != nil {
		return obs.Span{}, fmt.Errorf("simnet: %w", err)
	}
	return s.BeginEpoch(), nil
}

// closeEpoch is the epilogue: it adds the estimates that missed ε to
// res.Violations, publishes the epoch's ledger — what Stats and the alive
// count moved by since BeginEpoch — to the metrics, and ends the epoch span
// with the audit payload: reportBytes is the epoch's protocol ledger, the
// radio ledger (link bytes, every hop of every message, acks included; see
// docs/OBSERVABILITY.md, "Two byte ledgers") is the network's own. An epoch
// whose program fails never gets here, and publishes nothing.
func (s *Network) closeEpoch(sp obs.Span, res *EpochResult, truth, eps []float64, reportBytes int) {
	for g, est := range res.Estimates {
		if diff := est - truth[g]; diff > eps[g] || diff < -eps[g] {
			res.Violations++
		}
	}
	now, was, alive := s.stats, s.epoch0, s.AliveCount()
	s.mEpochs.Add(int64(now.Epochs - was.Epochs))
	s.mMsgs.Add(int64(now.MessagesSent - was.MessagesSent))
	s.mBytes.Add(int64(now.BytesSent - was.BytesSent))
	s.mDelivered.Add(int64(now.Delivered - was.Delivered))
	s.mDropLoss.Add(int64(now.DroppedLoss - was.DroppedLoss))
	s.mDropRoute.Add(int64(now.DroppedNoPath - was.DroppedNoPath))
	s.mRetx.Add(int64(now.Retransmits - was.Retransmits))
	s.mAcks.Add(int64(now.Acks - was.Acks))
	s.mDeaths.Add(int64(s.alive0 - alive))
	s.gAlive.Set(float64(alive))
	if sp.Active() {
		sp.EndEpoch(obs.Event{
			Step: int64(s.stats.Epochs), Clique: -1, Node: -1, N: res.ValuesDelivered,
			Payload: &obs.Payload{
				Predicted: res.Estimates, Observed: truth, Eps: eps,
				Bytes:     reportBytes,
				LinkBytes: now.BytesSent - was.BytesSent, Retx: now.Retransmits - was.Retransmits,
			},
		})
	}
}

// EpochSpan returns the current epoch's span (inactive when untraced or
// before the first BeginEpoch).
func (s *Network) EpochSpan() obs.Span { return s.span }

// spend drains energy from node i, flipping it dead at zero. The charge
// is clamped to the remaining battery: a node cannot deliver energy it
// does not hold, so Stats.EnergySpent never exceeds N × BatteryJ.
func (s *Network) spend(i int, j float64) {
	if i == s.top.Base() || !s.alive[i] {
		return // the base is mains-powered
	}
	if j > s.energy[i] {
		j = s.energy[i]
	}
	s.energy[i] -= j
	s.stats.EnergySpent += j
	s.gEnergy.Add(j)
	if s.energy[i] <= 0 {
		s.energy[i] = 0
		s.alive[i] = false
		if s.tracer != nil {
			s.tracer.Emit(obs.Event{
				Type: obs.EvNodeFailure, Step: int64(s.stats.Epochs), Clique: -1, Node: i,
			})
		}
	}
}

// liveVertex reports whether vertex v can participate in forwarding.
func (s *Network) liveVertex(v int) bool {
	if v == s.top.Base() {
		return true
	}
	return s.alive[v]
}

// Send routes the message hop-by-hop along live neighbours that make
// progress toward the destination, charging energy per hop. It returns
// true when the message reaches its destination. A dead source, a lossy
// hop, or a partitioned network yields false.
func (s *Network) Send(msg Message) bool { return s.SendSpan(msg, obs.Span{}) }

// SendSpan routes like Send, additionally tracing every link-level
// transmission (EvHop, with from/to/bytes in the payload) and any message
// death (EvDrop, Detail "loss", "noroute" or "dead") through a message
// span parented to cause — typically the report span whose traffic this
// is. An inactive cause falls back to the current epoch span; with no tracer
// attached SendSpan is exactly Send.
func (s *Network) SendSpan(msg Message, cause obs.Span) bool {
	return s.route(msg, msg.bytes(s.radio.OverheadBytes), cause, false)
}

// SendReliable routes like SendSpan and, when the radio's ARQ is enabled
// (MaxRetries > 0), runs stop-and-wait ARQ on top: after each delivery
// the destination routes an ack back (paying per-hop energy in both
// directions); on silence — the data or its ack lost — the sender draws a
// binary-exponential backoff from the deterministic network rng (motes
// have no wall clock, and replays must not either), charges the slots
// against the epoch's retry budget, traces EvRetx, and retransmits, up to
// MaxRetries times. Returns whether the payload reached its destination
// at least once: a lost ack costs a duplicate transmission, never
// correctness.
func (s *Network) SendReliable(msg Message, cause obs.Span) bool {
	arq := s.radio.ARQ
	if arq.MaxRetries <= 0 {
		return s.SendSpan(msg, cause)
	}
	if !cause.Active() {
		cause = s.span
	}
	wire := msg.bytes(s.radio.OverheadBytes)
	delivered := false
	for attempt := 0; ; attempt++ {
		if s.route(msg, wire, cause, false) {
			delivered = true
			if s.ackBack(msg, cause) {
				return true
			}
		}
		if attempt >= arq.MaxRetries || !s.liveVertex(msg.From) {
			return delivered
		}
		slots := 1 + s.rng.Intn(1<<uint(attempt))
		if s.retxBudget >= 0 {
			if slots > s.retxBudget {
				return delivered // epoch retry budget exhausted
			}
			s.retxBudget -= slots
		}
		s.stats.Retransmits++
		if cause.Active() {
			cause.Child().Emit(obs.Event{
				Type: obs.EvRetx, Step: int64(s.stats.Epochs), Clique: -1, Node: msg.From,
				Attrs: msg.Attrs, N: slots,
				Payload: &obs.Payload{From: msg.From, To: msg.To, Attempt: attempt + 1},
			})
		}
	}
}

// ackBack routes the link-layer acknowledgement for msg from its
// destination back to its sender, carrying the acked attrs so trace
// consumers can correlate ack losses with the data they confirmed.
func (s *Network) ackBack(msg Message, cause obs.Span) bool {
	ack := Message{From: msg.To, To: msg.From, Attrs: msg.Attrs}
	wire := s.radio.OverheadBytes + s.radio.ARQ.AckBytes
	s.stats.Acks++
	if !s.route(ack, wire, cause, true) {
		return false
	}
	if cause.Active() {
		cause.Child().Emit(obs.Event{
			Type: obs.EvAck, Step: int64(s.stats.Epochs), Clique: -1, Node: msg.From,
			Attrs:   msg.Attrs,
			Payload: &obs.Payload{From: msg.To, To: msg.From, Bytes: wire},
		})
	}
	return true
}

// route is the shared hop-by-hop forwarding engine behind SendSpan and
// the ARQ ack path; wire is the full per-hop byte cost and isAck excludes
// ack traffic from the end-to-end Delivered count.
func (s *Network) route(msg Message, wire int, cause obs.Span, isAck bool) bool {
	if !cause.Active() {
		cause = s.span
	}
	ms := cause.Child()
	step := int64(s.stats.Epochs)
	drop := func(node int, detail string) {
		if ms.Active() {
			ms.Emit(obs.Event{
				Type: obs.EvDrop, Step: step, Clique: -1, Node: node, Detail: detail,
				Attrs:   msg.Attrs,
				Payload: &obs.Payload{From: msg.From, To: msg.To},
			})
		}
	}
	if !s.liveVertex(msg.From) {
		s.stats.DroppedNoPath++
		drop(msg.From, "dead")
		return false
	}
	bytes := wire
	s.hMsgBytes.Observe(float64(bytes))
	cur := msg.From
	for cur != msg.To {
		next, err := s.nextHop(cur, msg.To)
		if err != nil {
			s.stats.DroppedNoPath++
			drop(cur, "noroute")
			return false
		}
		// Transmit.
		s.stats.MessagesSent++
		s.stats.BytesSent += bytes
		s.spend(cur, s.radio.TxPerByte*float64(bytes))
		if ms.Active() {
			ms.Emit(obs.Event{
				Type: obs.EvHop, Step: step, Clique: -1, Node: cur,
				Payload: &obs.Payload{From: cur, To: next, Bytes: bytes},
			})
		}
		// Per-hop loss: energy already spent, message gone.
		if s.radio.LossRate > 0 && s.rng.Float64() < s.radio.LossRate {
			s.stats.DroppedLoss++
			drop(cur, "loss")
			return false
		}
		// Receive.
		s.spend(next, s.radio.RxPerByte*float64(bytes))
		if !s.liveVertex(next) {
			// Receiver died mid-receive; the message is lost.
			s.stats.DroppedNoPath++
			drop(next, "dead")
			return false
		}
		cur = next
	}
	if !isAck {
		s.stats.Delivered++
	}
	return true
}

// nextHop picks the live neighbour minimising hop-cost plus remaining
// shortest-path distance — greedy geographic-style repair that routes
// around dead nodes without a global recompute. A dead destination is
// still selectable as the final hop: a sender cannot know its receiver's
// battery died, so it transmits (burning Tx energy) and the message dies
// at the receiver.
func (s *Network) nextHop(cur, dst int) (int, error) {
	best, bestCost := -1, math.Inf(1)
	for _, l := range s.top.Neighbors(cur) {
		if !s.liveVertex(l.V) && l.V != dst {
			continue
		}
		c := l.Cost + s.top.Comm(l.V, dst)
		// Require progress to avoid loops among equidistant neighbours.
		if s.top.Comm(l.V, dst) >= s.top.Comm(cur, dst) && l.V != dst {
			continue
		}
		if c < bestCost {
			best, bestCost = l.V, c
		}
	}
	if best < 0 {
		return 0, ErrNoRoute
	}
	return best, nil
}
