// Lifetime: the paper's energy argument, measured end to end (§1).
//
// Radio traffic dominates a mote's energy budget; the original Sonoma
// deployment lost a third of its nodes in days when a bug kept radios
// busy. This example runs TinyDB-style full dumps and Ken side by side as
// *distributed node programs* on the packet-level simulator — hop-by-hop
// forwarding, per-byte transmit/receive energy, batteries — over a
// multi-hop garden transect, and reports when nodes start dying and how
// much of the network survives a season.
//
//	go run ./examples/lifetime
package main

import (
	"fmt"
	"log"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/simnet"
	"ken/internal/trace"
)

const (
	trainHours = 100
	testHours  = 24 * 90 // a season of hourly epochs
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	exp, err := trace.LoadExperiment("garden", 13, trainHours, testHours, 0)
	if err != nil {
		return err
	}
	n, train, test, eps := len(exp.Eps), exp.Train, exp.Test, exp.Eps

	// A transect chain: node 10 sits next to the base station, node 0 is
	// eleven hops out. Relays near the base carry everyone's traffic —
	// the classic sensornet hotspot.
	top, err := network.Chain(n)
	if err != nil {
		return err
	}

	// Batteries sized so a TinyDB workload exhausts the hotspot within the
	// season (scaled-down Telos numbers; only the ratio matters).
	radio := simnet.DefaultRadio()
	radio.BatteryJ = 0.35
	radio.IdlePerEpoch = 2e-5

	// Ken's partition: adjacent pairs, rooted at the member closer to the
	// base so intra traffic flows downhill.
	part, err := cliques.Runs(n, 2, cliques.RootLast)
	if err != nil {
		return err
	}

	fmt.Printf("garden transect, %d nodes, %d hourly epochs, battery %.2f J/node\n\n",
		n, testHours, radio.BatteryJ)
	fmt.Printf("%-8s %12s %12s %12s %14s %12s %12s\n",
		"program", "first death", "alive @end", "delivered", "link messages", "energy (J)", "stale answers")

	for _, name := range []string{"tinydb", "ken"} {
		net, err := simnet.New(top, radio, 99)
		if err != nil {
			return err
		}
		prog, err := simnet.NewProgram(name, net, part, train, eps, model.FitConfig{Period: 24}, simnet.KenNetConfig{})
		if err != nil {
			return err
		}
		tot, err := simnet.Run(net, prog, test)
		if err != nil {
			return err
		}
		st := net.Stats()
		death := "none"
		if tot.FirstDeath > 0 {
			death = fmt.Sprintf("epoch %d", tot.FirstDeath)
		}
		fmt.Printf("%-8s %12s %9d/%d %12d %14d %12.2f %12d\n",
			name, death, net.AliveCount(), n, tot.Delivered, st.MessagesSent, st.EnergySpent, tot.Violations)
	}
	fmt.Println("\nKen's silence is energy: the hotspot relay survives the season that TinyDB kills it in")
	return nil
}
