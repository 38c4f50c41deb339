package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ken/internal/cliques"
	"ken/internal/core"
	"ken/internal/deploy"
	"ken/internal/network"
	"ken/internal/simnet"
	"ken/internal/stream"
	"ken/internal/trace"
	"ken/internal/wire"
)

// schedule is one run: a deployment, its readings and the delivery options.
type schedule struct {
	config
	part        *cliques.Partition
	train, rows [][]float64
	bounds      []float64
}

// outcome is what a delivery shows of an epoch.
type outcome struct {
	reported []int     // global attributes in report order; nil when not exposed
	count    int       // values reported
	values   []float64 // values sent, when exposed
	est      []float64 // the sink's answer
}

// list renders the report list, or its size alone when it is not exposed.
func (o outcome) list() string {
	if o.reported == nil {
		return fmt.Sprintf("%d values", o.count)
	}
	return fmt.Sprint(o.reported)
}

// delivery is one production path, beside its own reference.
type delivery struct {
	name  string
	ref   *refKen
	group string  // deliveries in one non-empty group agree bitwise (leg 1)
	slack float64 // ε slack of leg 3; negative when loss excuses misses
	step  func(truth []float64) (outcome, error)
}

// deliveries builds every path that can run s.
func deliveries(s *schedule) []*delivery {
	ref := func(r refKen) *refKen {
		r.heartbeat, r.rng = s.heartbeat, rand.New(rand.NewSource(s.lossSeed))
		return r.fit(s.part, s.train, s.bounds)
	}
	policy := fmt.Sprint("exhaustive=", s.exhaustive)
	scheme := func(sc core.Scheme) func([]float64) (outcome, error) {
		return func(truth []float64) (outcome, error) {
			est, st, err := sc.Step(truth)
			return outcome{reported: append([]int{}, st.Reported...), count: st.ValuesReported, est: slices.Clone(est)}, err
		}
	}
	var ds []*delivery
	kcfg := core.KenConfig{Partition: s.part, Train: s.train, Eps: s.bounds, FitCfg: fitCfg, Exhaustive: s.exhaustive}
	if s.heartbeat == 0 {
		ds = append(ds, &delivery{name: "core.Ken", ref: ref(refKen{exhaustive: s.exhaustive}), group: policy, slack: nearTie,
			step: scheme(must(core.NewKen(kcfg)))})
	}
	lossy := &delivery{name: "core.LossyKen", ref: ref(refKen{exhaustive: s.exhaustive, loss: s.loss}),
		group: policy, slack: nearTie,
		step: scheme(must(core.NewLossyKen(kcfg, core.LossyConfig{LossRate: s.loss, HeartbeatEvery: s.heartbeat, Seed: s.lossSeed})))}
	if s.loss > 0 {
		lossy.group, lossy.slack = "", -1
	}
	net := must(simnet.New(must(network.Uniform(len(s.bounds), 1, 3)), simnet.DefaultRadio(), 15))
	radio := must(simnet.NewDistributedKenConfig(net, s.part, s.train, s.bounds, fitCfg, simnet.KenNetConfig{HeartbeatEvery: s.heartbeat}))
	ds = append(ds, lossy, &delivery{name: "simnet.DistributedKen", ref: ref(refKen{}), group: fmt.Sprint("exhaustive=", false), slack: nearTie,
		step: func(truth []float64) (outcome, error) {
			res, err := radio.Epoch(truth)
			return outcome{count: res.ValuesDelivered, est: res.Estimates}, err
		}})

	cfg := stream.Config{Partition: s.part, Train: s.train, Eps: s.bounds, FitCfg: fitCfg, HeartbeatEvery: s.heartbeat}
	src, rep := must(stream.NewSource(cfg)), must(stream.NewReplica(cfg))
	quantum := slices.Min(s.bounds) / 100 // docs/PROTOCOL.md §5; leg 2 compares the values on this grid
	var buf []byte
	var frame wire.Frame
	return append(ds, &delivery{name: "stream", ref: ref(refKen{quantum: quantum}), slack: quantum,
		step: func(truth []float64) (outcome, error) {
			sent, err := src.Collect(truth)
			if err == nil {
				buf, err = wire.AppendEncode(buf[:0], sent, quantum)
			}
			if err == nil {
				err = wire.DecodeInto(&frame, buf, quantum)
			}
			if err == nil {
				err = rep.Apply(frame)
			}
			return outcome{reported: append([]int{}, sent.Attrs...), count: len(sent.Attrs), values: sent.Values, est: rep.Answer().Estimates}, err
		}})
}

// tally is what a run exercised.
type tally struct {
	heartbeats, reports, multi int // the first reference's heartbeats, values reported, clique reports of several
	lost, ties, wireMisses     int // values the coins dropped, near-tie epochs, stream answers beyond ε
}

// run replays s through every delivery and its reference, failing t at the
// first disagreement.
func run(t testing.TB, s *schedule) (tl tally) {
	ds := deliveries(s)
	outs := make([]outcome, len(ds))
	for e, truth := range s.rows {
		for j, d := range ds {
			var err error
			if outs[j], err = d.step(truth); err != nil {
				t.Fatalf("epoch %d: %s: %v", e, d.name, err)
			}
		}
		anchor := map[string]int{} // leg 1: each group's first member
		for j, d := range ds {
			a, ok := anchor[d.group]
			if d.group == "" || !ok {
				anchor[d.group] = j
				continue
			}
			x, y := outs[a], outs[j]
			if x.count != y.count || x.reported != nil && y.reported != nil && !slices.Equal(x.reported, y.reported) || !sameBits(x.est, y.est) {
				t.Fatalf("epoch %d: %s reported %s, %s %s; answers equal to the bit: %v",
					e, ds[a].name, x.list(), d.name, y.list(), sameBits(x.est, y.est))
			}
		}
		for j, d := range ds {
			judge(t, e, truth, s.bounds, d, outs[j], &tl, j == 0)
		}
	}
	return tl
}

// judge holds one delivery's epoch to its reference (legs 2 and 3).
func judge(t testing.TB, e int, truth, eps []float64, d *delivery, got outcome, tl *tally, first bool) {
	if d.ref == nil {
		return
	}
	reports, want, heartbeat, tie := d.ref.propose(truth)
	if tie {
		tl.ties++
		t.Logf("epoch %d: %s: near-tie in the reference's search", e, d.name)
	}
	if got.count != len(want) || got.reported != nil && !slices.Equal(got.reported, want) {
		switch {
		case !tie:
			t.Fatalf("epoch %d: %s reported %s, the reference %v", e, d.name, got.list(), want)
		case got.reported == nil:
			t.Logf("epoch %d: %s reported %s, the reference %v; with no list to adopt it leaves the comparison", e, d.name, got.list(), want)
			d.ref = nil
			return
		}
		t.Logf("epoch %d: %s reported %v, the reference %v, which adopts it", e, d.name, got.reported, want)
		var ok bool
		if reports, ok = d.ref.split(got.reported); !ok {
			t.Fatalf("epoch %d: %s reported %v, not clique by clique and ascending", e, d.name, got.reported)
		}
	}
	values, lost, est := d.ref.commit(truth, reports, heartbeat)
	if got.values != nil && !sameBits(got.values, values) {
		t.Fatalf("epoch %d: %s sent %v, the reference %v", e, d.name, got.values, values)
	}
	for g, v := range est {
		if math.Abs(got.est[g]-v) > nearTie*math.Max(1, math.Abs(v)) {
			t.Fatalf("epoch %d: %s answers %v for attribute %d, the reference %v", e, d.name, got.est[g], g, v)
		}
		if miss := math.Abs(got.est[g]-truth[g]) - eps[g]; d.slack >= 0 && miss > d.slack {
			t.Fatalf("epoch %d: %s misses attribute %d by %v beyond ε = %v", e, d.name, g, miss, eps[g])
		} else if miss > 0 && d.slack > nearTie {
			tl.wireMisses++
		}
	}
	tl.lost += lost
	if first {
		tl.reports += len(want)
		for _, idx := range reports {
			if len(idx) > 1 {
				tl.multi++
			}
		}
		if heartbeat {
			tl.heartbeats++
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// config names a schedule: a dataset's first n attributes after a 100-row
// training prefix, or deploy.Build's lab deployment at K = deployK with its
// own ε and partition.
type config struct {
	name, dataset           string
	n, k, epochs, heartbeat int             // the first n attributes, in cliques of at most k
	seed, shuffle, lossSeed int64           // shuffle > 0: shuffled non-adjacent blocks drawn from it instead of runs
	root                    cliques.RootEnd // of the runs
	eps                     []float64       // cycled over the attributes
	loss                    float64
	exhaustive              bool
	deployK                 int
}

func (c config) schedule() *schedule {
	s := &schedule{config: c}
	if c.deployK > 0 {
		d := must(deploy.Build(deploy.Params{Dataset: "lab", K: c.deployK, HeartbeatEvery: c.heartbeat}))
		s.part, s.train, s.bounds, s.rows = d.Partition, d.Config.Train, d.Config.Eps, d.Test[:c.epochs]
		return s
	}
	exp := must(trace.LoadExperiment(c.dataset, c.seed, 100, c.epochs, 0))
	n := min(c.n, len(exp.Eps))
	cut := func(rows [][]float64) (out [][]float64) {
		for _, r := range rows {
			out = append(out, slices.Clone(r[:n]))
		}
		return out
	}
	s.train, s.rows = cut(exp.Train), cut(exp.Test)
	for i := 0; i < n; i++ {
		s.bounds = append(s.bounds, c.eps[i%len(c.eps)])
	}
	if c.shuffle == 0 {
		s.part = must(cliques.Runs(n, c.k, c.root))
		return s
	}
	rng := rand.New(rand.NewSource(c.shuffle))
	perm := rng.Perm(n)
	s.part = &cliques.Partition{}
	for lo := 0; lo < n; {
		members := perm[lo:min(n, lo+1+rng.Intn(c.k))]
		s.part.Cliques = append(s.part.Cliques, cliques.Clique{Members: members, Root: members[rng.Intn(len(members))]})
		lo += len(members)
	}
	return s
}

// sweep covers every configuration the per-package references it replaced
// ran (EXPERIMENTS.md "One reference Ken (PR 32)" maps each assertion) and
// the two deployments the benchmark serves.
var sweep = []config{
	{name: "garden pairs", dataset: "garden", seed: 42, n: 11, k: 2, eps: []float64{0.5}, epochs: 200},
	{name: "lab k=8", dataset: "lab", seed: 42, n: 49, k: 8, eps: []float64{0.5}, epochs: 300},
	{name: "garden k=4 exhaustive", dataset: "garden", seed: 42, n: 11, k: 4, eps: []float64{0.5}, epochs: 200, exhaustive: true},
	{name: "garden pairs eps=0.3", dataset: "garden", seed: 77, n: 6, k: 2, eps: []float64{0.3}, epochs: 60},
	{name: "garden pairs eps=0.5", dataset: "garden", seed: 77, n: 6, k: 2, eps: []float64{0.5}, epochs: 60},
	{name: "stream pairs", dataset: "garden", seed: 71, n: 11, k: 2, eps: []float64{0.5}, epochs: 120},
	{name: "one clique of 6", dataset: "garden", seed: 31, n: 6, k: 6, eps: []float64{0.35}, epochs: 60},
	{name: "shuffled blocks", dataset: "garden", seed: 5, n: 7, k: 3, shuffle: 1, eps: []float64{0.4, 1.1, 0.25, 1.6, 0.7}, epochs: 200},
	{name: "shuffled blocks exhaustive", dataset: "garden", seed: 9, n: 7, k: 3, shuffle: 2, eps: []float64{0.9, 0.3, 1.4, 0.5}, epochs: 200, exhaustive: true},
	{name: "tight eps", dataset: "garden", seed: 17, n: 8, k: 4, root: cliques.RootLast, eps: []float64{1e-3, 0.5}, epochs: 60},
	{name: "heartbeat every epoch", dataset: "garden", seed: 13, n: 8, k: 4, eps: []float64{0.5}, epochs: 50, heartbeat: 1},
	{name: "lossy 20% hb 7", dataset: "garden", seed: 42, n: 11, k: 3, eps: []float64{0.5}, epochs: 200, heartbeat: 7, loss: 0.2, lossSeed: 3},
	{name: "lossy 50% hb 24", dataset: "lab", seed: 7, n: 16, k: 4, root: cliques.RootLast, eps: []float64{0.5}, epochs: 200, heartbeat: 24, loss: 0.5, lossSeed: 5},
	{name: "deploy lab k=2 hb 24", deployK: 2, heartbeat: 24, epochs: 500},
	{name: "deploy lab k=8 hb 24", deployK: 8, heartbeat: 24, epochs: 500},
}

// TestKenDeliveriesAgree runs the oracle over the sweep, whose
// configurations must decide clearly: a near-tie fails here.
func TestKenDeliveriesAgree(t *testing.T) {
	for _, c := range sweep {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s := c.schedule()
			tl := run(t, s)
			t.Logf("%+v", tl)
			switch {
			case tl.ties > 0:
				t.Errorf("%d near-ties", tl.ties)
			case tl.reports == 0:
				t.Error("nothing reported: the search was never exercised")
			case s.part.MaxCliqueSize() > 1 && tl.multi == 0:
				t.Error("no clique ever reported several values")
			case c.heartbeat > 0 && tl.heartbeats == 0 || c.loss > 0 && tl.lost == 0:
				t.Error("no heartbeat, or nothing lost")
			}
		})
	}
}

// epsTable is the fuzzer's choice of bounds; the last forces near-full
// reports.
var epsTable = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.5, 1e-3}

// decode turns fuzz bytes into a schedule, FuzzLinearGaussianSchedule's way:
// a header byte per knob, then one op byte per epoch; bytes past the end
// read as zero.
func decode(data []byte) *schedule {
	next := func() (b int) {
		if len(data) > 0 {
			b, data = int(data[0]), data[1:]
		}
		return b
	}
	h := next()
	c := config{
		dataset:    []string{"garden", "lab"}[h&1],
		heartbeat:  []int{0, 1, 7, 24}[h>>1&3],
		loss:       []float64{0, 0.2, 0.5, 0}[h>>3&3],
		exhaustive: h>>5&1 == 1,
		root:       cliques.RootEnd(h>>6&1 == 1),
		seed:       int64(1 + next()),
		lossSeed:   int64(next()),
		n:          1 + next()%16,
	}
	if c.k = 1 + next()%8; c.exhaustive {
		c.k = min(c.k, 5) // 2^k subsets per clique and epoch
	}
	c.shuffle = int64(h>>7) * int64(1+next()) // 0: runs
	e0, stride := next(), next()
	for i := 0; i < 16; i++ {
		c.eps = append(c.eps, epsTable[(e0+i*stride)%len(epsTable)])
	}
	c.epochs = 1 + next()%120
	s := c.schedule()
	for e, row := range s.rows {
		switch op := next(); op % 8 {
		case 5: // a spike on one attribute
			row[op/8%len(row)] += float64(next()-128) / 8
		case 6: // the previous epoch again; a run of them is a constant run
			if e > 0 {
				copy(row, s.rows[e-1])
			}
		case 7: // every attribute reads the first one's value
			for i := range row {
				row[i] = row[0]
			}
		}
	}
	return s
}

func FuzzKen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { run(t, decode(data)) })
}
