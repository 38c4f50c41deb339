package cliques

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ken/internal/mat"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/trace"
)

// greedyCase is one selection the fuzzer runs twice: with the cut-off, and
// over a FuncEvaluator that always estimates in full.
type greedyCase struct {
	dataset  string
	nodes    []int // the dataset's attributes the case keeps, ascending
	train    [][]float64
	eps      []float64
	fit      model.FitConfig
	mc       mc.Config
	top      string // the topology's name
	topology *network.Topology
	greedy   GreedyConfig
	fitCols  []int // a column subset, in fit order, for the moment check
}

func (c *greedyCase) String() string {
	return fmt.Sprintf("%s nodes %v T=%d fit %+v mc %+v %s k=%d metric %d parallel %d",
		c.dataset, c.nodes, len(c.train), c.fit, c.mc, c.top, c.greedy.K, c.greedy.Metric, c.greedy.Parallelism)
}

// fuzzRows holds each dataset's temperature rows, generated once.
var fuzzRows sync.Map

func datasetRows(t testing.TB, name string) [][]float64 {
	if rows, ok := fuzzRows.Load(name); ok {
		return rows.([][]float64)
	}
	tr, err := trace.GenerateNamed(name, 7, 160)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	fuzzRows.Store(name, rows)
	return rows
}

// decodeGreedy turns fuzz bytes into a case, FuzzKen's way: a header byte
// per knob; bytes past the end read as zero.
func decodeGreedy(t testing.TB, data []byte) *greedyCase {
	next := func() (b int) {
		if len(data) > 0 {
			b, data = int(data[0]), data[1:]
		}
		return b
	}
	h := next()
	c := &greedyCase{dataset: []string{"garden", "lab"}[h&1]}
	rows := datasetRows(t, c.dataset)
	all := len(rows[0])
	n := 1 + next()%min(all, 10)
	c.nodes = rand.New(rand.NewSource(int64(next()))).Perm(all)[:n]
	sort.Ints(c.nodes)
	// Enough rows for the seasonal profile (T ≥ 48), and too few for it.
	T := 4 + next()%(len(rows)-4)
	c.train = make([][]float64, T)
	for i := range c.train {
		c.train[i] = mat.Select(rows[i], c.nodes)
	}
	eps := []float64{0.1, 0.3, 0.5, 1}[h>>1&3]
	c.eps = make([]float64, n)
	for i := range c.eps {
		c.eps[i] = eps
	}
	c.fit = model.FitConfig{Period: []int{24, 0, 1, 100}[h>>3&3], DiagonalA: h>>5&1 == 1}
	c.mc = mc.Config{Trajectories: 1 + next()%3, Horizon: 4 + next()%20, Seed: int64(next())}
	c.greedy = GreedyConfig{K: 1 + next()%8, Metric: Metric(h >> 6 & 1), Parallelism: 1 + next()%3}
	var err error
	switch c.top = []string{"uniform", "chain", "star", "uniform"}[next()&3]; c.top {
	case "chain":
		c.topology, err = network.Chain(n)
	case "star":
		c.topology, err = network.Star(n)
	default:
		c.topology, err = network.Uniform(n, 1, float64(1+4*(h>>7)))
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, pick := 0, next(); i < n; i++ {
		if pick>>(i%8)&1 == 1 {
			c.fitCols = append(c.fitCols, i)
		}
	}
	if len(c.fitCols) == 0 {
		c.fitCols = []int{n - 1}
	}
	if next()&1 == 1 {
		for i, j := 0, len(c.fitCols)-1; i < j; i, j = i+1, j-1 {
			c.fitCols[i], c.fitCols[j] = c.fitCols[j], c.fitCols[i]
		}
	}
	return c
}

// checkGreedy runs the case's two checks: the moment-sliced fit against
// FitLinearGaussian on the projected columns, and Greedy with the cut-off
// against Greedy over full estimates. It reports whether the cut-off
// stopped any estimate.
func checkGreedy(t *testing.T, c *greedyCase) (stopped bool) {
	t.Helper()
	mo, err := model.NewMoments(c.train, c.fit)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	sliced, errSliced := mo.Fit(c.fitCols)
	proj := make([][]float64, len(c.train))
	for i, row := range c.train {
		proj[i] = mat.Select(row, c.fitCols)
	}
	direct, errDirect := model.FitLinearGaussian(proj, c.fit)
	if (errSliced == nil) != (errDirect == nil) {
		t.Fatalf("%v: columns %v: sliced fit %v, direct fit %v", c, c.fitCols, errSliced, errDirect)
	}
	if errSliced == nil {
		// The wire form carries A, Q, the profile, the clock and the state,
		// every float in its shortest exact form.
		a, errA := sliced.MarshalJSON()
		b, errB := direct.MarshalJSON()
		if fmt.Sprint(errA) != fmt.Sprint(errB) || string(a) != string(b) {
			t.Fatalf("%v: columns %v: sliced fit\n%s\ndirect fit\n%s", c, c.fitCols, a, b)
		}
	}

	cut, err := NewMCEvaluator(c.train, c.eps, c.fit, c.mc)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	full, err := NewMCEvaluator(c.train, c.eps, c.fit, c.mc)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	got, errGot := Greedy(c.topology, cut, c.greedy)
	want, errWant := Greedy(c.topology, FuncEvaluator(full.M), c.greedy)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%v: with the cut-off %v, in full %v", c, errGot, errWant)
	}
	if errGot != nil {
		return false
	}
	if !sameCliques(got, want) {
		t.Fatalf("%v:\nwith the cut-off %s %v\nin full          %s %v", c, got, mOf(got), want, mOf(want))
	}
	return cut.CacheSize() < full.CacheSize() // a stopped estimate is not cached
}

// sameCliques compares two partitions bit for bit.
func sameCliques(a, b *Partition) bool {
	if len(a.Cliques) != len(b.Cliques) {
		return false
	}
	for i, x := range a.Cliques {
		y := b.Cliques[i]
		if !reflect.DeepEqual(x.Members, y.Members) || x.Root != y.Root ||
			math.Float64bits(x.M) != math.Float64bits(y.M) ||
			math.Float64bits(x.Intra) != math.Float64bits(y.Intra) ||
			math.Float64bits(x.Sink) != math.Float64bits(y.Sink) {
			return false
		}
	}
	return true
}

func mOf(p *Partition) []float64 {
	var ms []float64
	for _, c := range p.Cliques {
		ms = append(ms, c.M)
	}
	return ms
}

// FuzzGreedy holds the two halves of partition selection's fast path to
// their plain forms: a fit sliced from the shared moment pass is the fit of
// the projected columns, and Greedy whose estimates stop once their
// candidate is beaten selects what it selects from full estimates.
func FuzzGreedy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkGreedy(t, decodeGreedy(t, data)) })
}

// TestGreedyCutoffSweep runs FuzzGreedy over fixed-seed inputs, among
// which the cut-off must stop estimates.
func TestGreedyCutoffSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	stopped := 0
	for i := 0; i < 40; i++ {
		data := make([]byte, 12)
		rng.Read(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			if checkGreedy(t, decodeGreedy(t, data)) {
				stopped++
			}
		})
	}
	if stopped < 10 {
		t.Errorf("the cut-off stopped estimates in only %d of 40 cases", stopped)
	}
	t.Logf("the cut-off stopped estimates in %d of 40 cases", stopped)
}

// The limit is the last report count whose score best does not strictly
// beat: at the limit the clique is not worse, one report more it is.
func TestReportLimit(t *testing.T) {
	chain, err := network.Chain(7)
	if err != nil {
		t.Fatal(err)
	}
	star, err := network.Star(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const epochs = 48
	for _, top := range []*network.Topology{chain, star, uniformTop(t, 7, 5)} {
		for _, metric := range []Metric{MetricCost, MetricReduction} {
			for trial := 0; trial < 50; trial++ {
				members := rng.Perm(7)[:1+rng.Intn(4)]
				sort.Ints(members)
				intra := intraByRoot(top, members)
				score := func(reports int) float64 {
					return scoreOf(placeRoot(top, members, intra, float64(reports)/epochs), metric)
				}
				most := epochs * len(members)
				// Bests at and between the scores reachable, and beyond them.
				best := score(rng.Intn(most + 1))
				switch trial % 3 {
				case 1:
					best = (best + score(rng.Intn(most+1))) / 2
				case 2:
					best += (rng.Float64() - 0.5) * 4
				}
				limit := reportLimit(top, members, intra, epochs, best, metric)
				worse := func(reports int) bool { return better(best, score(reports), metric) }
				switch {
				case limit == mc.NoLimit:
					if worse(most) {
						t.Fatalf("no limit, yet %d reports score %v against best %v", most, score(most), best)
					}
				case limit < -1 || limit >= most:
					t.Fatalf("limit %d outside [-1, %d)", limit, most)
				default:
					if limit >= 0 && worse(limit) {
						t.Fatalf("the limit %d scores %v, strictly worse than best %v", limit, score(limit), best)
					}
					if !worse(limit + 1) {
						t.Fatalf("limit %d + 1 scores %v, not strictly worse than best %v", limit, score(limit+1), best)
					}
				}
			}
		}
	}
}

// A candidate that ties the best score so far runs to its full estimate,
// bit for bit the uncut one; one that the best beats by a single report
// stops.
func TestBuildWithinStopsOnlyStrictlyBeaten(t *testing.T) {
	rows := datasetRows(t, "garden")
	eps := make([]float64, len(rows[0]))
	for i := range eps {
		eps[i] = 0.3
	}
	fit, mcCfg := model.FitConfig{Period: 24}, mc.Config{Trajectories: 3, Horizon: 20, Seed: 4}
	chain, err := network.Chain(len(eps))
	if err != nil {
		t.Fatal(err)
	}
	beaten := 0
	for _, top := range []*network.Topology{chain, uniformTop(t, len(eps), 5)} {
		for _, metric := range []Metric{MetricCost, MetricReduction} {
			for _, members := range [][]int{{0}, {1, 2}, {3, 4, 5}, {0, 5, 6, 9}} {
				full, err := NewMCEvaluator(rows[:120], eps, fit, mcCfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := BuildClique(top, full, members)
				if err != nil {
					t.Fatal(err)
				}
				fresh := func() Evaluator {
					e, err := NewMCEvaluator(rows[:120], eps, fit, mcCfg)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				tie := &scoreBoard{metric: metric, score: scoreOf(want, metric), have: true}
				got, stopped, err := buildWithin(top, fresh(), members, tie)
				if err != nil || stopped || !sameCliques(&Partition{[]Clique{got}}, &Partition{[]Clique{want}}) {
					t.Fatalf("%v metric %d: against its own score %+v stopped=%v %v, want %+v", members, metric, got, stopped, err, want)
				}
				reports := int(math.Round(want.M * float64(mcCfg.Epochs())))
				if reports == 0 {
					continue
				}
				one := scoreOf(placeRoot(top, want.Members, intraByRoot(top, want.Members), float64(reports-1)/float64(mcCfg.Epochs())), metric)
				if !better(one, scoreOf(want, metric), metric) {
					continue
				}
				ahead := &scoreBoard{metric: metric, score: one, have: true}
				if _, stopped, err := buildWithin(top, fresh(), members, ahead); err != nil || !stopped {
					t.Fatalf("%v metric %d: a best one report ahead did not stop it (%v)", members, metric, err)
				}
				beaten++
			}
		}
	}
	if beaten == 0 {
		t.Fatal("no candidate was beaten by a single report")
	}
}
