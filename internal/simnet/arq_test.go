package simnet

import (
	"bytes"
	"math"
	"testing"

	"ken/internal/model"
	"ken/internal/obs"
)

// TestSendToDeadDestinationBurnsTxEnergy pins the no-global-knowledge
// rule: a sender cannot see its receiver's battery, so a unicast to a
// dead destination still transmits (and charges Tx energy) and the
// message dies at the receiver.
func TestSendToDeadDestinationBurnsTxEnergy(t *testing.T) {
	top := chainTop(t, 3)
	radio := DefaultRadio()
	net, err := New(top, radio, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.spend(1, net.Energy(1)+1)
	if net.Alive(1) {
		t.Fatal("node 1 should be dead")
	}
	e0 := net.Energy(0)
	msg := Message{From: 0, To: 1, Attrs: []int{0}, Values: []float64{1}}
	if net.Send(msg) {
		t.Fatal("delivery to a dead destination should fail")
	}
	st := net.Stats()
	if st.MessagesSent != 1 {
		t.Fatalf("MessagesSent = %d, want 1 (the sender must transmit)", st.MessagesSent)
	}
	wantTx := radio.TxPerByte * float64(msg.bytes(radio.OverheadBytes))
	if spent := e0 - net.Energy(0); math.Abs(spent-wantTx) > 1e-12 {
		t.Fatalf("sender spent %v J, want Tx cost %v", spent, wantTx)
	}
	if st.DroppedNoPath != 1 {
		t.Fatalf("DroppedNoPath = %d, want 1", st.DroppedNoPath)
	}
}

// TestEnergySpentCappedAtTotalBattery runs a chatty program to full
// network death and checks the books: a node cannot deliver energy it
// does not hold, so the total spend equals the total battery exactly —
// never more (the pre-clamp accounting overshot on the killing charge).
func TestEnergySpentCappedAtTotalBattery(t *testing.T) {
	radio := DefaultRadio()
	radio.BatteryJ = 0.002
	net, _, test, eps := gardenNet(t, radio, 5, true)
	prog, err := NewDistributedTinyDB(net, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range test {
		if _, err := prog.Epoch(row); err != nil {
			t.Fatal(err)
		}
		if net.AliveCount() == 0 {
			break
		}
	}
	if net.AliveCount() != 0 {
		t.Fatal("network should have died within the test window")
	}
	total := radio.BatteryJ * 11
	spent := net.Stats().EnergySpent
	if spent > total+1e-12 {
		t.Fatalf("EnergySpent %v exceeds the %v J the batteries held", spent, total)
	}
	if diff := total - spent; diff > 1e-9 {
		t.Fatalf("all nodes dead but %v J unaccounted for", diff)
	}
}

// TestDeadRootMembersStillTransmit checks the other side of the same
// rule at the program level: clique members keep shipping readings to a
// dead root — burning Tx energy for messages that die at the receiver —
// instead of consulting global liveness they cannot have.
func TestDeadRootMembersStillTransmit(t *testing.T) {
	radio := DefaultRadio()
	net, train, test, eps := gardenNet(t, radio, 7, true)
	prog, err := NewDistributedKenConfig(net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill node 0, the root of clique {0,1}; its member 1 sits at the far
	// end of the chain, so no other clique's traffic relays through it.
	net.spend(0, net.Energy(0)+1)
	e0 := net.Energy(1)
	epochs := 150
	for _, row := range test[:epochs] {
		if _, err := prog.Epoch(row); err != nil {
			t.Fatal(err)
		}
	}
	idleOnly := float64(epochs) * radio.IdlePerEpoch
	if spent := e0 - net.Energy(1); spent <= idleOnly+1e-12 {
		t.Fatalf("member spent %v J ≈ idle-only %v: it stopped transmitting to its dead root", spent, idleOnly)
	}
	if net.Stats().DroppedNoPath == 0 {
		t.Fatal("no messages died at the dead root")
	}
}

// arqNet builds a 2-node chain (0 — 1 — base) for link-level ARQ tests.
func arqNet(t *testing.T, radio Radio, seed int64) *Network {
	t.Helper()
	net, err := New(chainTop(t, 2), radio, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSendReliableDeliversThroughLoss compares fire-and-forget against
// stop-and-wait ARQ on the same lossy link: retransmissions must buy a
// strictly better delivery rate, at the cost of retransmit and ack
// traffic.
func TestSendReliableDeliversThroughLoss(t *testing.T) {
	radio := DefaultRadio()
	radio.LossRate = 0.4
	msg := Message{From: 0, To: 2, Attrs: []int{0}, Values: []float64{1}}
	const sends = 200

	plainNet := arqNet(t, radio, 3)
	plainNet.BeginEpoch()
	plain := 0
	for i := 0; i < sends; i++ {
		if plainNet.Send(msg) {
			plain++
		}
	}

	radio.ARQ.MaxRetries = 5
	arq := arqNet(t, radio, 3)
	arq.BeginEpoch()
	reliable := 0
	for i := 0; i < sends; i++ {
		if arq.SendReliable(msg, nil) {
			reliable++
		}
	}
	if reliable <= plain {
		t.Fatalf("ARQ delivered %d/%d, plain %d/%d — retries bought nothing", reliable, sends, plain, sends)
	}
	st := arq.Stats()
	if st.Retransmits == 0 || st.Acks == 0 {
		t.Fatalf("40%% loss produced no ARQ traffic: %d retx, %d acks", st.Retransmits, st.Acks)
	}
	// Delivered counts end-to-end data arrivals — a lost ack means a
	// duplicate delivery, so it can exceed the per-message success count,
	// but ack traffic itself must never inflate it.
	if st.Delivered < reliable || st.Delivered > reliable+st.Retransmits {
		t.Fatalf("Delivered = %d outside [%d, %d]: ack traffic leaked into the data count",
			st.Delivered, reliable, reliable+st.Retransmits)
	}
}

// TestSendReliableRespectsRetryBudget caps an epoch's backoff slots and
// checks retransmissions stay within it — and that BeginEpoch refills it.
func TestSendReliableRespectsRetryBudget(t *testing.T) {
	radio := DefaultRadio()
	radio.LossRate = 0.6
	radio.ARQ.MaxRetries = 5
	radio.ARQ.RetryBudget = 3
	net := arqNet(t, radio, 11)
	msg := Message{From: 0, To: 2, Attrs: []int{0}, Values: []float64{1}}

	net.BeginEpoch()
	for i := 0; i < 50; i++ {
		net.SendReliable(msg, nil)
	}
	if r := net.Stats().Retransmits; r > 3 {
		t.Fatalf("%d retransmissions in one epoch, budget allows at most 3 slots", r)
	}
	first := net.Stats().Retransmits
	if first == 0 {
		t.Fatal("60% loss spent no retry budget at all")
	}
	net.BeginEpoch()
	for i := 0; i < 50; i++ {
		net.SendReliable(msg, nil)
	}
	if r := net.Stats().Retransmits; r <= first || r > first+3 {
		t.Fatalf("second epoch retransmits %d (after %d): budget did not refill to 3", r-first, first)
	}
}

// TestSendReliableNoARQIsFireAndForget: MaxRetries 0 must behave exactly
// like Send — no acks, no retransmissions, identical rng consumption.
func TestSendReliableNoARQIsFireAndForget(t *testing.T) {
	radio := DefaultRadio()
	radio.LossRate = 0.3
	a, b := arqNet(t, radio, 4), arqNet(t, radio, 4)
	a.BeginEpoch()
	b.BeginEpoch()
	msg := Message{From: 0, To: 2, Attrs: []int{0}, Values: []float64{1}}
	for i := 0; i < 100; i++ {
		if a.Send(msg) != b.SendReliable(msg, nil) {
			t.Fatalf("send %d: outcomes diverged with ARQ off", i)
		}
	}
	st := b.Stats()
	if st.Retransmits != 0 || st.Acks != 0 {
		t.Fatalf("ARQ off but %d retx, %d acks", st.Retransmits, st.Acks)
	}
	if a.Stats() != st {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), st)
	}
}

// TestSendReliableTracesRetxAndAcks checks the trace tells the same
// story as the counters: one EvRetx per retransmission, EvAck only for
// acks that actually made it back.
func TestSendReliableTracesRetxAndAcks(t *testing.T) {
	radio := DefaultRadio()
	radio.LossRate = 0.3
	radio.ARQ.MaxRetries = 4
	net := arqNet(t, radio, 6)
	var buf bytes.Buffer
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
	net.Instrument(ob)
	net.BeginEpoch()
	msg := Message{From: 0, To: 2, Attrs: []int{0}, Values: []float64{1}}
	for i := 0; i < 50; i++ {
		net.SendReliable(msg, nil)
	}
	if err := ob.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	retx, acks := 0, 0
	for _, e := range events {
		switch e.Type {
		case obs.EvRetx:
			retx++
			if e.Payload == nil || e.Payload.Attempt < 1 {
				t.Fatalf("EvRetx without a positive attempt number: %+v", e)
			}
		case obs.EvAck:
			acks++
		}
	}
	st := net.Stats()
	if retx != st.Retransmits {
		t.Fatalf("trace carries %d EvRetx, stats count %d retransmissions", retx, st.Retransmits)
	}
	if acks == 0 || acks > st.Acks {
		t.Fatalf("trace carries %d EvAck, stats sent %d acks (traced acks are the delivered subset)", acks, st.Acks)
	}
}
