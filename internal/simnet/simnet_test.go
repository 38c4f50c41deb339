package simnet

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"ken/internal/alloctest"
	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/gauss"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/trace"
)

// chainTop builds 0-1-2-...-(n-1)-base with unit links.
func chainTop(t *testing.T, n int) *network.Topology {
	t.Helper()
	links := make([]network.Link, 0, n)
	for i := 0; i < n; i++ {
		links = append(links, network.Link{U: i, V: i + 1, Cost: 1})
	}
	top, err := network.New(n, links)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNewValidation(t *testing.T) {
	top := chainTop(t, 3)
	if _, err := New(nil, DefaultRadio(), 1); err == nil {
		t.Fatal("expected error for nil topology")
	}
	bad := DefaultRadio()
	bad.BatteryJ = 0
	if _, err := New(top, bad, 1); err == nil {
		t.Fatal("expected error for zero battery")
	}
	bad = DefaultRadio()
	bad.LossRate = 1
	if _, err := New(top, bad, 1); err == nil {
		t.Fatal("expected error for loss rate 1")
	}
}

func TestSendDeliversAndCharges(t *testing.T) {
	top := chainTop(t, 3)
	radio := DefaultRadio()
	net, err := New(top, radio, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg := Message{From: 0, To: top.Base(), Attrs: []int{0}, Values: []float64{20}}
	if !net.Send(msg) {
		t.Fatal("delivery failed on a clean chain")
	}
	st := net.Stats()
	if st.MessagesSent != 3 { // three hops: 0→1→2→base
		t.Fatalf("hops = %d, want 3", st.MessagesSent)
	}
	if st.Delivered != 1 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
	// Node 0 paid tx once, node 1 rx+tx, node 2 rx+tx, base free.
	bytes := float64(msg.bytes(radio.OverheadBytes))
	wantMiddle := radio.BatteryJ - bytes*(radio.TxPerByte+radio.RxPerByte)
	if got := net.Energy(1); math.Abs(got-wantMiddle) > 1e-12 {
		t.Fatalf("node 1 energy = %v, want %v", got, wantMiddle)
	}
	if got := net.Energy(0); math.Abs(got-(radio.BatteryJ-bytes*radio.TxPerByte)) > 1e-12 {
		t.Fatalf("node 0 energy = %v", got)
	}
}

func TestBeginEpochIdleDrain(t *testing.T) {
	top := chainTop(t, 2)
	radio := DefaultRadio()
	net, err := New(top, radio, 1)
	if err != nil {
		t.Fatal(err)
	}
	net.BeginEpoch()
	net.BeginEpoch()
	if got := net.Energy(0); math.Abs(got-(radio.BatteryJ-2*radio.IdlePerEpoch)) > 1e-12 {
		t.Fatalf("idle drain wrong: %v", got)
	}
	if net.Stats().Epochs != 2 {
		t.Fatalf("epochs = %d", net.Stats().Epochs)
	}
}

func TestDeadNodeKillsRelay(t *testing.T) {
	top := chainTop(t, 3)
	radio := DefaultRadio()
	radio.BatteryJ = 1e-9 // everything dies on first spend
	net, err := New(top, radio, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drain node 1 via idle.
	radioAlive := net.AliveCount()
	if radioAlive != 3 {
		t.Fatalf("alive = %d", radioAlive)
	}
	net.BeginEpoch()
	if net.AliveCount() != 0 {
		t.Fatalf("tiny batteries should all be dead, alive = %d", net.AliveCount())
	}
	if net.Send(Message{From: 0, To: top.Base()}) {
		t.Fatal("dead source should not send")
	}
}

func TestRouteRepairAroundDeadNode(t *testing.T) {
	// Diamond: 0 can reach base via 1 or 2; kill 1 and expect delivery
	// via 2.
	links := []network.Link{
		{U: 0, V: 1, Cost: 1},
		{U: 0, V: 2, Cost: 1.5},
		{U: 1, V: 3, Cost: 1},
		{U: 2, V: 3, Cost: 1.5},
	}
	top, err := network.New(3, links)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(top, DefaultRadio(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill node 1 directly.
	net.spend(1, net.Energy(1)+1)
	if net.Alive(1) {
		t.Fatal("node 1 should be dead")
	}
	if !net.Send(Message{From: 0, To: top.Base(), Values: []float64{1}}) {
		t.Fatal("route repair via node 2 failed")
	}
}

func TestLossDropsMessages(t *testing.T) {
	top := chainTop(t, 2)
	radio := DefaultRadio()
	radio.LossRate = 0.5
	net, err := New(top, radio, 7)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 200; i++ {
		if net.Send(Message{From: 0, To: top.Base(), Values: []float64{1}}) {
			delivered++
		}
	}
	// Two hops at 50% each ⇒ ~25% end-to-end delivery.
	if delivered < 20 || delivered > 90 {
		t.Fatalf("delivered %d of 200, want ~50", delivered)
	}
	if net.Stats().DroppedLoss == 0 {
		t.Fatal("no losses recorded")
	}
}

// gardenNet builds an 11-node garden network plus training/test data.
// multihop selects a chain topology (node 10 adjacent to the base, node 0
// eleven hops away — the transect layout); otherwise all nodes reach the
// base directly.
func gardenNet(t *testing.T, radio Radio, seed int64, multihop bool) (*Network, [][]float64, [][]float64, []float64) {
	t.Helper()
	tr, err := trace.GenerateGarden(21, 300)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Deployment.N()
	var top *network.Topology
	if multihop {
		top = chainTop(t, n)
	} else {
		top, err = network.Uniform(n, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
	}
	net, err := New(top, radio, seed)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]float64, n)
	for i := range eps {
		eps[i] = 0.5
	}
	return net, rows[:100], rows[100:], eps
}

// pairsPartition covers n attributes with pairs (plus a final singleton).
func pairsPartition(n int) *cliques.Partition {
	p, _ := cliques.Runs(n, 2, cliques.RootFirst) // pairs, then a singleton when n is odd
	return p
}

func TestDistributedKenCleanNetworkKeepsGuarantee(t *testing.T) {
	net, train, test, eps := gardenNet(t, DefaultRadio(), 1, false)
	prog, err := NewDistributedKenConfig(net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	totalViolations, totalDelivered := 0, 0
	for _, row := range test {
		res, err := prog.Epoch(row)
		if err != nil {
			t.Fatal(err)
		}
		totalViolations += res.Violations
		totalDelivered += res.ValuesDelivered
	}
	if totalViolations != 0 {
		t.Fatalf("clean network violated ε %d times", totalViolations)
	}
	if totalDelivered == 0 || totalDelivered >= len(test)*11 {
		t.Fatalf("delivered %d values, expected partial reporting", totalDelivered)
	}
}

func TestDistributedKenLossCausesTransientViolations(t *testing.T) {
	radio := DefaultRadio()
	radio.LossRate = 0.3
	net, train, test, eps := gardenNet(t, radio, 2, false)
	prog, err := NewDistributedKenConfig(net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	totalViolations := 0
	for _, row := range test {
		res, err := prog.Epoch(row)
		if err != nil {
			t.Fatal(err)
		}
		totalViolations += res.Violations
	}
	if totalViolations == 0 {
		t.Fatal("30% loss should cause some violations")
	}
	// But divergence stays transient: far fewer violations than readings.
	if totalViolations >= len(test)*11/2 {
		t.Fatalf("violations %d of %d — divergence not transient", totalViolations, len(test)*11)
	}
}

func TestDistributedKenOutlivesTinyDB(t *testing.T) {
	// The headline energy claim: with small batteries, TinyDB's full dump
	// kills nodes much sooner than Ken's model-driven silence.
	radio := DefaultRadio()
	radio.BatteryJ = 0.012 // tiny batteries so deaths occur within the test window
	radio.IdlePerEpoch = 1e-5

	netT, train, test, eps := gardenNet(t, radio, 3, true)
	tiny, err := NewDistributedTinyDB(netT, eps)
	if err != nil {
		t.Fatal(err)
	}
	tinyTot, err := Run(netT, tiny, test)
	if err != nil {
		t.Fatal(err)
	}
	tinyDeath := tinyTot.FirstDeath

	netK, train2, test2, eps2 := gardenNet(t, radio, 3, true)
	ken, err := NewDistributedKenConfig(netK, pairsPartition(11), train2, eps2, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	kenTot, err := Run(netK, ken, test2)
	if err != nil {
		t.Fatal(err)
	}
	kenDeath := kenTot.FirstDeath
	_ = train
	if tinyDeath < 0 {
		t.Fatal("TinyDB should exhaust the relay node within the window")
	}
	if kenDeath >= 0 && kenDeath <= tinyDeath {
		t.Fatalf("Ken first death at %d, TinyDB at %d — Ken should last longer", kenDeath, tinyDeath)
	}
}

func TestDistributedTinyDBExactWhileAlive(t *testing.T) {
	net, _, test, eps := gardenNet(t, DefaultRadio(), 4, false)
	prog, err := NewDistributedTinyDB(net, eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Epoch(test[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 || res.ValuesDelivered != 11 {
		t.Fatalf("clean tinydb epoch: %d violations, %d delivered", res.Violations, res.ValuesDelivered)
	}
	for i, v := range res.Estimates {
		if v != test[0][i] {
			t.Fatalf("estimate %d = %v, want exact %v", i, v, test[0][i])
		}
	}
}

func TestDistributedKenValidation(t *testing.T) {
	net, train, _, eps := gardenNet(t, DefaultRadio(), 5, false)
	if _, err := NewDistributedKenConfig(nil, pairsPartition(11), train, eps, model.FitConfig{}, KenNetConfig{}); err == nil {
		t.Fatal("expected error for nil network")
	}
	if _, err := NewDistributedKenConfig(net, pairsPartition(11), nil, eps, model.FitConfig{}, KenNetConfig{}); err == nil {
		t.Fatal("expected error for empty training data")
	}
	if _, err := NewDistributedKenConfig(net, pairsPartition(3), train, eps, model.FitConfig{}, KenNetConfig{}); err == nil {
		t.Fatal("expected error for bad partition")
	}
	if _, err := NewDistributedKenConfig(net, pairsPartition(11), train, eps[:3], model.FitConfig{}, KenNetConfig{}); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
	if _, err := NewDistributedTinyDB(net, eps[:2]); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
}

func TestMessageBytes(t *testing.T) {
	m := Message{Attrs: []int{1, 2}, Values: []float64{1, 2}}
	if got := m.bytes(16); got != 16+4+4 {
		t.Fatalf("bytes = %d, want 24", got)
	}
}

// TestEnergyConservation: total energy spent plus remaining batteries must
// equal the initial budget, regardless of traffic pattern.
func TestEnergyConservation(t *testing.T) {
	radio := DefaultRadio()
	net, train, test, eps := gardenNet(t, radio, 8, true)
	prog, err := NewDistributedKenConfig(net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range test[:100] {
		if _, err := prog.Epoch(row); err != nil {
			t.Fatal(err)
		}
	}
	remaining := 0.0
	for i := 0; i < 11; i++ {
		remaining += net.Energy(i)
	}
	initial := radio.BatteryJ * 11
	if diff := math.Abs(initial - remaining - net.Stats().EnergySpent); diff > 1e-9 {
		t.Fatalf("energy leak: initial %v, remaining %v, spent %v (diff %v)",
			initial, remaining, net.Stats().EnergySpent, diff)
	}
}

// TestDeadRootSilencesCliqueButEpochContinues: killing a clique root must
// not wedge the protocol — the sink predicts blind for that clique and
// counts violations when predictions drift.
func TestDeadRootSilencesCliqueButEpochContinues(t *testing.T) {
	radio := DefaultRadio()
	net, train, test, eps := gardenNet(t, radio, 9, false)
	prog, err := NewDistributedKenConfig(net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill node 0, the root of clique {0,1}.
	net.spend(0, net.Energy(0)+1)
	if net.Alive(0) {
		t.Fatal("node 0 should be dead")
	}
	violations := 0
	for _, row := range test[:150] {
		res, err := prog.Epoch(row)
		if err != nil {
			t.Fatal(err)
		}
		violations += res.Violations
	}
	if violations == 0 {
		t.Fatal("a dead clique root should eventually cause prediction violations")
	}
	// The healthy cliques keep the damage localized: violations are far
	// below total readings.
	if violations > 150*11/2 {
		t.Fatalf("violations %d — dead root poisoned healthy cliques", violations)
	}
}

func TestDistributedAverageCleanNetwork(t *testing.T) {
	net, train, test, eps := gardenNet(t, DefaultRadio(), 12, true)
	prog, err := NewDistributedAverage(net, train, eps, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	violations, delivered := 0, 0
	for _, row := range test {
		res, err := prog.Epoch(row)
		if err != nil {
			t.Fatal(err)
		}
		violations += res.Violations
		delivered += res.ValuesDelivered
	}
	if violations != 0 {
		t.Fatalf("clean network: %d violations", violations)
	}
	if delivered == 0 || delivered >= len(test)*11 {
		t.Fatalf("delivered %d, expected partial reporting", delivered)
	}
	// Aggregation + dissemination traffic flows every epoch: message count
	// far exceeds the reported values alone.
	if st := net.Stats(); st.MessagesSent <= delivered {
		t.Fatalf("aggregation traffic missing: %d messages for %d reports", st.MessagesSent, delivered)
	}
}

func TestDistributedAverageValidation(t *testing.T) {
	net, train, _, eps := gardenNet(t, DefaultRadio(), 13, false)
	if _, err := NewDistributedAverage(nil, train, eps, model.FitConfig{}); err == nil {
		t.Fatal("expected error for nil network")
	}
	if _, err := NewDistributedAverage(net, train[:1], eps, model.FitConfig{}); err == nil {
		t.Fatal("expected error for too little training data")
	}
	if _, err := NewDistributedAverage(net, train, eps[:2], model.FitConfig{}); err == nil {
		t.Fatal("expected error for eps mismatch")
	}
}

func TestDistributedAverageFixedCostHurtsLifetime(t *testing.T) {
	// The paper's §5.3 argument: the Average model's fixed per-epoch
	// aggregation/dissemination traffic makes it structurally more
	// expensive than Ken's cliques. On equal batteries, Avg's first death
	// must come no later than Ken's.
	radio := DefaultRadio()
	radio.BatteryJ = 0.012
	radio.IdlePerEpoch = 1e-5

	netA, train, test, eps := gardenNet(t, radio, 14, true)
	avg, err := NewDistributedAverage(netA, train, eps, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	avgTot, err := Run(netA, avg, test)
	if err != nil {
		t.Fatal(err)
	}
	avgDeath := avgTot.FirstDeath

	netK, train2, test2, eps2 := gardenNet(t, radio, 14, true)
	ken, err := NewDistributedKenConfig(netK, pairsPartition(11), train2, eps2, model.FitConfig{Period: 24}, KenNetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	kenTot, err := Run(netK, ken, test2)
	if err != nil {
		t.Fatal(err)
	}
	kenDeath := kenTot.FirstDeath
	if avgDeath < 0 {
		avgDeath = len(test) + 1
	}
	if kenDeath < 0 {
		kenDeath = len(test2) + 1
	}
	if avgDeath > kenDeath {
		t.Fatalf("Avg first death %d later than Ken %d — fixed aggregation cost unaccounted", avgDeath, kenDeath)
	}
}

// TestEpochRejectsNonFiniteReadingBeforeMoving: a NaN reading is a typed
// error from every program before the epoch begins — no message sent, no
// energy spent, no replica stepped, no average or last-delivered value
// poisoned — and the program carries on in lock-step with one that never
// saw it.
func TestEpochRejectsNonFiniteReadingBeforeMoving(t *testing.T) {
	fit := model.FitConfig{Period: 24}
	programs := map[string]func(*Network, [][]float64, []float64) (Program, error){
		"ken": func(net *Network, train [][]float64, eps []float64) (Program, error) {
			return NewDistributedKenConfig(net, pairsPartition(11), train, eps, fit, KenNetConfig{HeartbeatEvery: 3})
		},
		"avg": func(net *Network, train [][]float64, eps []float64) (Program, error) {
			return NewDistributedAverage(net, train, eps, fit)
		},
		"tinydb": func(net *Network, _ [][]float64, eps []float64) (Program, error) {
			return NewDistributedTinyDB(net, eps)
		},
	}
	for name, mk := range programs {
		t.Run(name, func(t *testing.T) {
			build := func() (*Network, Program, [][]float64) {
				net, train, test, eps := gardenNet(t, DefaultRadio(), 15, false)
				prog, err := mk(net, train, eps)
				if err != nil {
					t.Fatal(err)
				}
				return net, prog, test
			}
			gotNet, got, test := build()
			refNet, ref, _ := build()
			for step, row := range test[:40] {
				bad := append([]float64(nil), row...)
				bad[10] = math.NaN() // the last clique
				if _, err := got.Epoch(bad); !errors.Is(err, gauss.ErrNotFinite) {
					t.Fatalf("%s step %d: err = %v, want gauss.ErrNotFinite", name, step, err)
				}
				g, err := got.Epoch(row)
				if err != nil {
					t.Fatal(err)
				}
				r, err := ref.Epoch(row)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, r) {
					t.Fatalf("%s step %d: a rejected epoch changed what followed", name, step)
				}
			}
			if gotNet.Stats() != refNet.Stats() {
				t.Fatalf("%s: rejected epochs touched the network: %+v vs %+v", name, gotNet.Stats(), refNet.Stats())
			}
		})
	}
}

// TestDistributedAverageMatchesCoreEngine: on a loss-free network the
// packet-level Average program and the idealised core.Average scheme run
// the identical protocol loop (lagged disseminated average, same models),
// so the nodes they report and the bits of their estimates must agree step
// for step.
func TestDistributedAverageMatchesCoreEngine(t *testing.T) {
	net, train, test, eps := gardenNet(t, DefaultRadio(), 16, false)
	prog, err := NewDistributedAverage(net, train, eps, model.FitConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := core.NewAverage(train, eps, model.FitConfig{Period: 24}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reported := 0
	for step, row := range test[:150] {
		dres, err := prog.Epoch(row)
		if err != nil {
			t.Fatal(err)
		}
		iest, ist, err := ideal.Step(row)
		if err != nil {
			t.Fatal(err)
		}
		if dres.ValuesDelivered != ist.ValuesReported || !slices.Equal(prog.loop.Reported, ist.Reported) {
			t.Fatalf("step %d: distributed delivered %d of nodes %v, core reported %d of nodes %v",
				step, dres.ValuesDelivered, prog.loop.Reported, ist.ValuesReported, ist.Reported)
		}
		for i := range iest {
			if math.Float64bits(dres.Estimates[i]) != math.Float64bits(iest[i]) {
				t.Fatalf("step %d attr %d: estimates diverged %v vs %v",
					step, i, dres.Estimates[i], iest[i])
			}
		}
		reported += ist.ValuesReported
	}
	if reported == 0 {
		t.Fatal("nothing reported: the report path was never compared")
	}
}

// TestRunTotals: Run on a lossy, battery-limited garden chain equals a
// hand-stepped Epoch loop field for field, for every program NewProgram
// names — the loop kennet, the figure harness and the lifetime example each
// used to write out.
func TestRunTotals(t *testing.T) {
	radio := DefaultRadio()
	radio.BatteryJ = 0.004 // small enough that relays die inside the window
	radio.IdlePerEpoch = 1e-5
	radio.LossRate = 0.15
	radio.ARQ.MaxRetries = 2
	cfg := KenNetConfig{HeartbeatEvery: 10, FailureAlpha: 0.01}
	for _, name := range []string{"tinydb", "avg", "ken"} {
		build := func() (*Network, Program, [][]float64) {
			net, train, test, eps := gardenNet(t, radio, 7, true)
			prog, err := NewProgram(name, net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return net, prog, test
		}
		net, prog, test := build()
		got, err := Run(net, prog, test)
		if err != nil {
			t.Fatal(err)
		}

		net, prog, test = build()
		want := Totals{FirstDeath: -1}
		for step, row := range test {
			res, err := prog.Epoch(row)
			if err != nil {
				t.Fatal(err)
			}
			want.Epochs++
			want.Delivered += res.ValuesDelivered
			want.Violations += res.Violations
			for _, s := range res.Stale {
				if s {
					want.StaleReadings++
				}
			}
			if want.FirstDeath < 0 && net.AliveCount() < 11 {
				want.FirstDeath = step + 1
			}
		}
		if got != want {
			t.Fatalf("%s: Run = %+v, hand-stepped = %+v", name, got, want)
		}
		if got.Epochs != len(test) || got.FirstDeath < 0 || got.Violations == 0 || got.Delivered == 0 {
			t.Fatalf("%s: window exercises too little: %+v", name, got)
		}
		if name == "ken" && got.StaleReadings == 0 {
			t.Fatalf("ken: failure detector never flagged a reading: %+v", got)
		}
	}
	if _, err := NewProgram("gossip", nil, nil, nil, nil, model.FitConfig{}, cfg); err == nil {
		t.Fatal("expected error for an unknown program name")
	}
}

// nextHop reads the topology's adjacency in place: a hop allocates nothing
// (the budget table in docs/INVARIANTS.md).
func TestAllocBudgetNextHop(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	top, err := network.Uniform(6, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(top, DefaultRadio(), 1)
	if err != nil {
		t.Fatal(err)
	}
	hop := func() {
		if _, err := s.nextHop(2, top.Base()); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, hop); got != 0 {
		t.Errorf("nextHop: %v allocs, want 0", got)
	}
}

// TestAllocBudgetRunLookups holds simnet.Run's epochs to zero registry
// lookups on every program, through loss, node deaths and, for ken, ARQ
// retransmissions and heartbeats: the network resolves its handles once,
// in Instrument.
func TestAllocBudgetRunLookups(t *testing.T) {
	radio := DefaultRadio()
	radio.BatteryJ = 0.004
	radio.IdlePerEpoch = 1e-5
	radio.LossRate = 0.15
	radio.ARQ.MaxRetries = 2
	for _, name := range []string{"tinydb", "avg", "ken"} {
		net, train, test, eps := gardenNet(t, radio, 7, true)
		reg := obs.NewRegistry()
		net.Instrument(&obs.Observer{Reg: reg})
		prog, err := NewProgram(name, net, pairsPartition(11), train, eps, model.FitConfig{Period: 24}, KenNetConfig{HeartbeatEvery: 10, FailureAlpha: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		before := reg.Lookups()
		tot, err := Run(net, prog, test)
		if err != nil {
			t.Fatal(err)
		}
		if lookups := reg.Lookups() - before; lookups != 0 {
			t.Errorf("%s: %d registry lookups over %d epochs, budget 0", name, lookups, tot.Epochs)
		}
		if tot.FirstDeath < 0 || (name == "ken" && reg.Snapshot().Counters["simnet_retransmits_total"] == 0) {
			t.Fatalf("%s: no death, or ken retransmitted nothing — budget premise broken: %+v", name, tot)
		}
	}
}

// TestEpochLedgerIsTheStats replays kennet's ARQ run with batteries small
// enough to kill 9 of its 11 nodes (-program ken -topology star -loss 0.2
// -arq-retries 3 -heartbeat 10 -failure-alpha 0.01 -steps 150 -battery
// 0.02), traced and instrumented. The network publishes one ledger per
// epoch, so what the registry and the epoch_end events add up to must be
// the network's own Stats: every integer simnet_* counter its field, the
// deaths n − AliveCount(), and the epoch_end link_bytes and retx sums
// Stats.BytesSent and Stats.Retransmits.
func TestEpochLedgerIsTheStats(t *testing.T) {
	exp, err := trace.LoadExperiment("garden", 1, 100, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(exp.Eps)
	top, err := network.Uniform(n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	radio := DefaultRadio()
	radio.BatteryJ = 0.02
	radio.IdlePerEpoch = 2e-5
	radio.LossRate = 0.2
	radio.ARQ.MaxRetries = 3
	net, err := New(top, radio, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ob := &obs.Observer{Reg: obs.NewRegistry(), Trace: obs.NewTracer(&buf)}
	net.Instrument(ob)
	part, err := cliques.Runs(n, 2, cliques.RootLast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram("ken", net, part, exp.Train, exp.Eps, model.FitConfig{Period: 24}, KenNetConfig{HeartbeatEvery: 10, FailureAlpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(net, prog, exp.Test); err != nil {
		t.Fatal(err)
	}
	if err := ob.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	st, snap := net.Stats(), ob.Reg.Snapshot()
	if n-net.AliveCount() != 9 || st.Retransmits == 0 {
		t.Fatalf("%d deaths, %d retransmissions: not the death-and-ARQ run", n-net.AliveCount(), st.Retransmits)
	}
	for name, want := range map[string]int{
		"simnet_epochs_total":          st.Epochs,
		"simnet_messages_sent_total":   st.MessagesSent,
		"simnet_bytes_sent_total":      st.BytesSent,
		"simnet_delivered_total":       st.Delivered,
		"simnet_dropped_loss_total":    st.DroppedLoss,
		"simnet_dropped_noroute_total": st.DroppedNoPath,
		"simnet_retransmits_total":     st.Retransmits,
		"simnet_acks_total":            st.Acks,
		"simnet_node_deaths_total":     n - net.AliveCount(),
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The live count is per network, so it is each epoch_start's n (the
	// nodes no node_failure has struck yet), not a gauge on a registry that
	// several networks may share.
	ends, linkBytes, retx, deaths := 0, 0, 0, 0
	for _, e := range events {
		switch e.Type {
		case obs.EvNodeFailure:
			deaths++
		case obs.EvEpochStart:
			if e.N != n-deaths {
				t.Fatalf("epoch %d starts with n=%d, but %d of %d nodes have failed", e.Step, e.N, deaths, n)
			}
		case obs.EvEpochEnd:
			ends++
			linkBytes += e.Payload.LinkBytes
			retx += e.Payload.Retx
		}
	}
	if ends != st.Epochs || linkBytes != st.BytesSent || retx != st.Retransmits {
		t.Fatalf("%d epoch_end events carry %d link bytes and %d retransmissions; Stats: %d epochs, %d bytes, %d retransmissions",
			ends, linkBytes, retx, st.Epochs, st.BytesSent, st.Retransmits)
	}
}
