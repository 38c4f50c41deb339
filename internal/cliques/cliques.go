// Package cliques implements Ken's Disjoint-Cliques model selection (§4):
// partitioning the sensor attributes into localized cliques, choosing each
// clique's inference root, and estimating the resulting communication cost.
//
// The optimal partitioning problem is NP-hard (reduction from minimum
// 3-dimensional assignment, §4.1). The package provides both the paper's
// dynamic-programming exhaustive algorithm (Fig 5) and the Greedy-k
// heuristic (Fig 6), plus the cost model they share:
//
//	intra-source(C) = Σ_{x∈C} comm(x, root)          (collect every step)
//	source-sink(C)  = m_C · comm(root, base)          (report on misses)
//	root(C)         = argmin_r intra(C, r) + m_C·comm(r, base)
//
// where m_C, the clique's expected reported values per step, comes from a
// pluggable Evaluator (Monte Carlo over a fitted model in production,
// oracles in tests).
package cliques

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ken/internal/mat"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/protocol"
)

// Evaluator estimates the data reduction factor m_C — the expected number
// of attribute values per time step the clique reports to the sink.
// Implementations must be deterministic for a given clique: both
// partitioning algorithms and the cost accounting rely on repeatable
// estimates.
type Evaluator interface {
	M(clique []int) (float64, error)
}

// Clique is one element of a Disjoint-Cliques partition, with its chosen
// root and cost decomposition.
type Clique struct {
	Members []int   // sorted attribute indices
	Root    int     // sensor node where inference runs (not necessarily a member)
	M       float64 // expected reported values per step
	Intra   float64 // per-step cost of collecting members at the root
	Sink    float64 // per-step expected cost of reporting to the base
}

// Cost returns the clique's total per-step expected communication cost.
func (c Clique) Cost() float64 { return c.Intra + c.Sink }

// Partition is a disjoint cover of the attribute set by cliques.
type Partition struct {
	Cliques []Clique
}

// TotalCost returns the summed per-step expected cost.
func (p *Partition) TotalCost() float64 {
	s := 0.0
	for _, c := range p.Cliques {
		s += c.Cost()
	}
	return s
}

// IntraCost returns the summed intra-source component.
func (p *Partition) IntraCost() float64 {
	s := 0.0
	for _, c := range p.Cliques {
		s += c.Intra
	}
	return s
}

// SinkCost returns the summed source-sink component.
func (p *Partition) SinkCost() float64 {
	s := 0.0
	for _, c := range p.Cliques {
		s += c.Sink
	}
	return s
}

// ExpectedReported returns the summed expected reported values per step.
func (p *Partition) ExpectedReported() float64 {
	s := 0.0
	for _, c := range p.Cliques {
		s += c.M
	}
	return s
}

// MaxCliqueSize returns the size of the largest clique.
func (p *Partition) MaxCliqueSize() int {
	max := 0
	for _, c := range p.Cliques {
		if len(c.Members) > max {
			max = len(c.Members)
		}
	}
	return max
}

// Validate checks that the partition exactly covers {0..n-1} with disjoint
// cliques.
func (p *Partition) Validate(n int) error {
	seen := make([]bool, n)
	count := 0
	for _, c := range p.Cliques {
		for _, i := range c.Members {
			if i < 0 || i >= n {
				return fmt.Errorf("cliques: member %d out of range %d", i, n)
			}
			if seen[i] {
				return fmt.Errorf("cliques: attribute %d covered twice", i)
			}
			seen[i] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("cliques: partition covers %d of %d attributes", count, n)
	}
	return nil
}

// Fit checks the partition against the training matrix and the bounds and
// fits one protocol kernel per clique, in partition order — the replicas
// every endpoint of a deployment starts from — returning each clique's root
// beside them. Every clique's model is model.FitColumns of its own columns
// of train, as MCEvaluator fits the candidates it scores, with the clique's
// attributes in ascending order whatever order Members lists them.
func (p *Partition) Fit(train [][]float64, eps []float64, cfg model.FitConfig) (kernels []*protocol.Kernel, roots []int, err error) {
	if p == nil {
		return nil, nil, errors.New("cliques: no partition")
	}
	if len(train) == 0 {
		return nil, nil, errors.New("cliques: no training data")
	}
	n := len(train[0])
	if len(eps) != n {
		return nil, nil, fmt.Errorf("cliques: eps dim %d, training dim %d", len(eps), n)
	}
	if err := p.Validate(n); err != nil {
		return nil, nil, err
	}
	for _, c := range p.Cliques {
		members := append([]int(nil), c.Members...)
		sort.Ints(members)
		m, err := model.FitColumns(train, members, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("cliques: fitting clique %v: %w", members, err)
		}
		k, err := protocol.New(m, members, mat.Select(eps, members))
		if err != nil {
			return nil, nil, err
		}
		kernels, roots = append(kernels, k), append(roots, c.Root)
	}
	return kernels, roots, nil
}

// RootEnd names the end of a run of adjacent attributes that hosts its root.
type RootEnd bool

const (
	// RootFirst roots a run at its lowest member.
	RootFirst RootEnd = false
	// RootLast roots a run at its highest member — the one nearest the base
	// on a network.Chain, so intra-clique traffic flows downhill.
	RootLast RootEnd = true
)

// Runs partitions attributes 0..n-1 into runs of k adjacent indices (the
// last run takes what is left), each rooted at the given end — the fixed
// partition of the experiments that do not select one.
func Runs(n, k int, root RootEnd) (*Partition, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("cliques: runs of %d over %d attributes, both must be >= 1", k, n)
	}
	p := &Partition{}
	for lo := 0; lo < n; lo += k {
		hi := min(lo+k, n)
		c := Clique{Members: make([]int, hi-lo), Root: lo}
		for j := range c.Members {
			c.Members[j] = lo + j
		}
		if root == RootLast {
			c.Root = hi - 1
		}
		p.Cliques = append(p.Cliques, c)
	}
	return p, nil
}

// String renders the partition compactly, e.g. "{0,1,2}@1 {3,4}@4".
func (p *Partition) String() string {
	var sb strings.Builder
	for k, c := range p.Cliques {
		if k > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('{')
		for i, m := range c.Members {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(m))
		}
		sb.WriteString("}@")
		sb.WriteString(strconv.Itoa(c.Root))
	}
	return sb.String()
}

// ErrEmptyClique is returned when a clique has no members.
var ErrEmptyClique = errors.New("cliques: empty clique")

// BuildClique evaluates a member set: estimates m_C, picks the best root,
// and fills in the cost decomposition (§4.1).
func BuildClique(top *network.Topology, eval Evaluator, members []int) (Clique, error) {
	c, _, err := buildWithin(top, eval, members, nil)
	return c, err
}

// buildWithin is BuildClique for a clique that only matters if it does not
// score strictly worse than board's best so far. When eval is an
// MCEvaluator, whose estimates can stop early, and board holds a score, the
// estimate stops once the clique has reported past reportLimit: beaten is
// then true and the clique is not built. A nil board, or any other
// evaluator, always builds.
func buildWithin(top *network.Topology, eval Evaluator, members []int, board *scoreBoard) (c Clique, beaten bool, err error) {
	if len(members) == 0 {
		return Clique{}, false, ErrEmptyClique
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for _, i := range ms {
		if i < 0 || i >= top.N() {
			return Clique{}, false, fmt.Errorf("cliques: member %d out of topology range %d", i, top.N())
		}
	}
	intra := intraByRoot(top, ms)
	var m float64
	if mce, ok := eval.(*MCEvaluator); ok {
		limit := mc.NoLimit
		if best, ok := board.best(); ok {
			limit = reportLimit(top, ms, intra, mce.mcCfg.Epochs(), best, board.metric)
		}
		var complete bool
		if m, complete, err = mce.mWithin(ms, limit); err == nil && !complete {
			return Clique{}, true, nil
		}
	} else {
		m, err = eval.M(ms)
	}
	if err != nil {
		return Clique{}, false, fmt.Errorf("cliques: evaluating %v: %w", ms, err)
	}
	if m < 0 {
		return Clique{}, false, fmt.Errorf("cliques: evaluator returned negative m %v for %v", m, ms)
	}
	c = placeRoot(top, ms, intra, m)
	board.offer(c)
	return c, false, nil
}

// intraByRoot returns, for every sensor node r as the root, the per-step
// cost of collecting the members there, Σ_x comm(x, r). It does not depend
// on m_C, so a clique scored at several m computes it once.
func intraByRoot(top *network.Topology, members []int) []float64 {
	intra := make([]float64, top.N())
	for r := range intra {
		for _, x := range members {
			intra[r] += top.Comm(x, r)
		}
	}
	return intra
}

// placeRoot builds the clique at m_C = m: every sensor node is a candidate
// root (the root need not be a member, "we frequently observe otherwise",
// §4.1), and the first with the least intra + m·comm(r, base) wins. The cost
// is a minimum over roots of sums of non-negative rounded products of m, so
// it never falls as m grows.
func placeRoot(top *network.Topology, members []int, intra []float64, m float64) Clique {
	c := Clique{Members: members, M: m}
	bestCost := -1.0
	for r, in := range intra {
		sk := m * top.CommToBase(r)
		if cost := in + sk; bestCost < 0 || cost < bestCost {
			bestCost, c.Root, c.Intra, c.Sink = cost, r, in, sk
		}
	}
	return c
}

// cliqueKey returns a canonical string key for caching.
func cliqueKey(members []int) string {
	var sb strings.Builder
	for i, m := range members {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(m))
	}
	return sb.String()
}
