package bench

import (
	"context"
	"fmt"

	"ken/internal/cliques"
	"ken/internal/engine"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/simnet"
)

// Faults sweeps per-hop loss rate against the reliability layer on the
// Lab deployment: the bare distributed protocol (a lost unicast
// desynchronises the replicas until the next report), stop-and-wait ARQ
// with up to 3 retransmissions, and ARQ plus a full-value heartbeat every
// 10 epochs (§6). The figure shows ε violations collapsing as the
// delivery machinery under the guarantee hardens, at the price of
// retransmission traffic.
func Faults(ctx context.Context, eng *engine.Engine, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	eng = ensureEngine(eng)
	ctx = engine.WithScope(ctx, "faults")
	t := &Table{
		Title:   "Reliability: ε violations vs per-hop loss (Lab, 200 epochs)",
		Columns: []string{"loss", "variant", "violations", "retx", "values delivered"},
	}

	type variant struct {
		name    string
		retries int
		hb      int
	}
	variants := []variant{
		{"no-arq", 0, 0},
		{"arq3", 3, 0},
		{"arq3+hb10", 3, 10},
	}
	type cell struct {
		loss float64
		v    variant
	}
	var cells []cell
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		for _, v := range variants {
			cells = append(cells, cell{loss, v})
		}
	}

	epochs := cfg.TestSteps
	if epochs > 200 {
		epochs = 200
	}
	tr, err := cachedTrace(eng, "lab", cfg.Seed, cfg.TrainSteps+epochs)
	if err != nil {
		return nil, err
	}
	exp, err := tr.Experiment(cfg.TrainSteps, 0)
	if err != nil {
		return nil, err
	}
	n := len(exp.Eps)
	// Single-hop star: every node one link from the base, so the per-hop
	// loss rate is exactly the per-message loss rate.
	top, err := network.Star(n)
	if err != nil {
		return nil, err
	}
	part, err := cliques.Runs(n, 2, cliques.RootFirst)
	if err != nil {
		return nil, err
	}

	out, err := engine.Map(ctx, eng, cells, func(ctx context.Context, _ int, c cell) ([]string, error) {
		label := fmt.Sprintf("loss%.2f-%s", c.loss, c.v.name)
		radio := simnet.DefaultRadio()
		radio.LossRate = c.loss
		radio.ARQ.MaxRetries = c.v.retries
		net, err := simnet.New(top, radio, engine.CellSeed(cfg.Seed, "faults", label))
		if err != nil {
			return nil, err
		}
		net.Instrument(cfg.Obs.Scoped(engine.Scope(ctx)).Scoped(label))
		prog, err := simnet.NewDistributedKenConfig(net, part, exp.Train, exp.Eps, model.FitConfig{Period: 24},
			simnet.KenNetConfig{HeartbeatEvery: c.v.hb})
		if err != nil {
			return nil, err
		}
		tot, err := simnet.Run(net, prog, exp.Test)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("%.0f%%", c.loss*100), c.v.name,
			fmt.Sprintf("%d", tot.Violations),
			fmt.Sprintf("%d", net.Stats().Retransmits),
			fmt.Sprintf("%d", tot.Delivered),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, out...)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d-node Lab star, %d epochs; ARQ acks charge energy both ways", n, len(exp.Test)),
		"violations: node-epochs where the base's estimate missed ε")
	return t, nil
}
