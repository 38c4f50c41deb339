// Package protocol is the one copy of Ken's protocol (§3.2): predict, check
// the prediction against ε, search for the smallest report that restores
// accuracy, condition on what was reported. A Kernel (this file) is one
// replica of one clique's model with the scratch those four moves need; a
// Loop (loop.go) is the epoch over a source and a sink kernel per clique,
// which make the same moves on the same report — all that keeps them in
// lock-step — with a Channel deciding what reaches the sink, or over either
// half alone when the other runs in another process; while a sink is
// provably its source's twin, the loop copies the source's epoch into it
// instead of recomputing it. mc, the bench replays and the failure-detector
// calibration advance a lone replica through Advance.
//
// Reports travel as the sorted pair the models take (see model.Model):
// clique-local indices, strictly increasing, and one value per index.
package protocol

import (
	"fmt"
	"math"
	"sort"

	"ken/internal/gauss"
	"ken/internal/model"
)

// Kernel is one replica of one clique: its model, the clique's place in the
// global attribute vector, its error bounds, and preallocated scratch. It is
// not safe for concurrent use.
type Kernel struct {
	m       model.Model
	sc      model.StateCopier // m's state copy from a twin; nil when the family has none
	members []int             // global attribute index of each local one, strictly increasing
	eps     []float64         // clique-local bounds, all positive
	all     []int             // 0..Dim()-1, the full candidate set

	local  []float64 // readings gathered by the last Choose/Full
	mean   []float64 // the last mean read or hypothesised
	idx    []int     // the report being built, strictly increasing
	vals   []float64
	picked []bool // picked[i]: local attribute i is in the report being built
}

// New wraps a fitted model as a clique replica. members maps the model's
// local attributes to global indices and must be strictly increasing — wire
// frames list attributes in ascending order, and a sorted clique turns that
// into ascending local indices with no per-frame sort; nil means the model
// covers the whole vector (members[i] = i). eps are the clique-local bounds.
// The kernel takes ownership of m.
func New(m model.Model, members []int, eps []float64) (*Kernel, error) {
	if m == nil {
		return nil, fmt.Errorf("protocol: nil model")
	}
	n := m.Dim()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if members == nil {
		members = all
	}
	if len(members) != n || len(eps) != n {
		return nil, fmt.Errorf("%w: model covers %d attributes, clique has %d members and %d bounds",
			model.ErrDim, n, len(members), len(eps))
	}
	for i, g := range members {
		if g < 0 || (i > 0 && g <= members[i-1]) {
			return nil, fmt.Errorf("protocol: clique members %v are not non-negative and strictly increasing", members)
		}
		if !(eps[i] > 0) {
			return nil, fmt.Errorf("protocol: non-positive epsilon %v for attribute %d", eps[i], g)
		}
	}
	sc, _ := m.(model.StateCopier)
	return &Kernel{
		m: m, sc: sc, all: all,
		members: append([]int(nil), members...),
		eps:     append([]float64(nil), eps...),
		local:   make([]float64, n),
		mean:    make([]float64, n),
		idx:     make([]int, 0, n),
		vals:    make([]float64, 0, n),
		picked:  make([]bool, n),
	}, nil
}

// Project extracts a clique's columns of the training matrix and its entries
// of the global bound vector. Every row must cover every member.
func Project(train [][]float64, eps []float64, members []int) (cols [][]float64, local []float64, err error) {
	if len(members) == 0 {
		return nil, nil, fmt.Errorf("protocol: empty clique")
	}
	local = make([]float64, len(members))
	for k, g := range members {
		if g < 0 || g >= len(eps) {
			return nil, nil, fmt.Errorf("%w: clique member %d outside the %d attributes", model.ErrDim, g, len(eps))
		}
		local[k] = eps[g]
	}
	cols = make([][]float64, len(train))
	for t, row := range train {
		if len(row) != len(eps) {
			return nil, nil, fmt.Errorf("%w: training row %d has %d attributes, want %d", model.ErrDim, t, len(row), len(eps))
		}
		r := make([]float64, len(members))
		for k, g := range members {
			r[k] = row[g]
		}
		cols[t] = r
	}
	return cols, local, nil
}

// Fit projects the training matrix and the global bounds onto a clique,
// fits the clique's model through fit and returns the replica every endpoint
// of the deployment clones its own from. The clique's attributes are taken
// in ascending order whatever order members lists them in.
func Fit(train [][]float64, eps []float64, members []int, fit func(cols [][]float64) (model.Model, error)) (*Kernel, error) {
	members = append([]int(nil), members...)
	sort.Ints(members)
	cols, local, err := Project(train, eps, members)
	if err != nil {
		return nil, err
	}
	m, err := fit(cols)
	if err != nil {
		return nil, fmt.Errorf("protocol: fitting clique %v: %w", members, err)
	}
	if m == nil || m.Dim() != len(members) {
		return nil, fmt.Errorf("protocol: model for clique %v has the wrong dimension", members)
	}
	return New(m, members, local)
}

// Clone returns an independent replica in the same state.
func (k *Kernel) Clone() *Kernel {
	cp, err := New(k.m.Clone(), k.members, k.eps)
	if err != nil {
		panic(err) // invariant: an existing kernel is always valid
	}
	return cp
}

// Dim returns the clique size.
func (k *Kernel) Dim() int { return len(k.members) }

// Members returns the clique's global attribute indices (read-only).
func (k *Kernel) Members() []int { return k.members }

// Eps returns the clique-local bounds (read-only).
func (k *Kernel) Eps() []float64 { return k.eps }

// Model exposes the replica's model, for alternative report policies and
// diagnostics. Mutating it outside Predict/Commit forfeits lock-step.
func (k *Kernel) Model() model.Model { return k.m }

// CheckReadings rejects a reading vector holding NaN or ±Inf, wrapping
// gauss.ErrNotFinite. Drivers call it on the whole epoch's readings before
// the first Predict, and it is the only finiteness check the readings get —
// Choose and Full trust it: a NaN compares false against every bound, so
// unchecked it would be suppressed silently, and a rejection after some
// cliques have advanced would leave the source ahead of a sink that never
// hears of it.
func CheckReadings(truth []float64) error {
	for g, v := range truth {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: reading %v for attribute %d", gauss.ErrNotFinite, v, g)
		}
	}
	return nil
}

// Predict advances the replica one step through the model's transition.
func (k *Kernel) Predict() { k.m.Step() }

// Mean reads the replica's current mean into the kernel's scratch and
// returns it, valid until the next call on the kernel.
func (k *Kernel) Mean() []float64 {
	if err := k.m.MeanInto(k.mean); err != nil {
		panic(err) // scratch sized to the model at construction
	}
	return k.mean
}

// Scatter writes the replica's current mean into the clique's slots of the
// global estimate vector.
func (k *Kernel) Scatter(est []float64) {
	for i, v := range k.Mean() {
		est[k.members[i]] = v
	}
}

// Gather copies the clique's readings out of the global vector into the
// kernel's scratch and returns them, valid until the next Gather, Choose,
// Full or Advance.
func (k *Kernel) Gather(truth []float64) []float64 {
	for i, g := range k.members {
		k.local[i] = truth[g]
	}
	return k.local
}

// candidates gathers the readings and validates the candidate set: local
// indices, strictly increasing. nil means every attribute. Finiteness is the
// driver's CheckReadings, once for the whole epoch before any clique moves.
func (k *Kernel) candidates(truth []float64, cand []int) ([]int, error) {
	if len(truth) <= k.members[len(k.members)-1] {
		return nil, fmt.Errorf("%w: %d readings, clique reaches attribute %d", model.ErrDim, len(truth), k.members[len(k.members)-1])
	}
	local := k.Gather(truth)
	if cand == nil {
		cand = k.all
	}
	prev := -1
	for _, i := range cand {
		if i <= prev || i >= len(local) {
			return nil, fmt.Errorf("%w: candidate %d out of order or outside the clique's %d attributes", model.ErrDim, i, len(local))
		}
		prev = i
	}
	return cand, nil
}

// Choose is the source's decision for one epoch (§3.2 step 4): the report —
// local indices and their readings, as a sorted pair — that makes every
// candidate's prediction ε-accurate. cand lists the local attributes whose
// readings the source holds (strictly increasing); only they are checked
// and only they can be reported. nil means all of them; a root that missed
// some members' readings passes the rest.
//
// A prediction already within every bound returns the empty report after
// one mean read. Otherwise the search is greedy: add the candidate with the
// largest normalised miss |x̂_i − x_i|/ε_i (lowest index on ties), re-infer,
// repeat; reporting every candidate always satisfies the bounds, so it ends
// within len(cand) rounds. Every round is answered by the model's evaluator
// (model.Model's CondReset/CondAdd/CondMeanInto), which never touches the
// replicated state; an evaluator error fails the search.
//
// The returned slices are the kernel's scratch, valid until its next
// Choose, Full or Advance; a driver may rewrite the values in place
// (quantization) before committing them. The search allocates nothing of
// its own.
func (k *Kernel) Choose(truth []float64, cand []int) (idx []int, vals []float64, err error) {
	cand, err = k.candidates(truth, cand)
	if err != nil {
		return nil, nil, err
	}
	k.reset()
	first := k.worst(cand, k.Mean())
	if first < 0 {
		return k.idx, k.vals, nil
	}
	if len(cand) == 1 {
		// The pick is the whole report; a singleton's search has nothing
		// to ask the evaluator, or Σ.
		k.insert(first)
		return k.idx, k.vals, nil
	}
	if err := k.grow(cand, first); err != nil {
		return nil, nil, err
	}
	return k.idx, k.vals, nil
}

// Full is the heartbeat's report (§6): every candidate's reading, whatever
// the prediction. Same contract as Choose.
func (k *Kernel) Full(truth []float64, cand []int) (idx []int, vals []float64, err error) {
	cand, err = k.candidates(truth, cand)
	if err != nil {
		return nil, nil, err
	}
	k.reset()
	k.idx, k.vals = k.idx[:len(cand)], k.vals[:len(cand)]
	for j, i := range cand {
		k.idx[j], k.vals[j] = i, k.local[i]
	}
	return k.idx, k.vals, nil
}

// reset empties the report being built.
func (k *Kernel) reset() {
	for _, i := range k.idx {
		k.picked[i] = false
	}
	k.idx, k.vals = k.idx[:0], k.vals[:0]
}

// worst returns the unpicked candidate whose reading misses mean by the
// largest multiple of its ε, or -1 when every candidate is within bounds.
func (k *Kernel) worst(cand []int, mean []float64) int {
	worst, ratio := -1, 1.0
	for _, i := range cand {
		if k.picked[i] {
			continue
		}
		if r := math.Abs(mean[i]-k.local[i]) / k.eps[i]; r > ratio {
			worst, ratio = i, r
		}
	}
	return worst
}

// grow runs the greedy rounds from the first pick on: report the pick,
// re-infer the candidates given the report so far through the evaluator,
// and pick again until none misses.
func (k *Kernel) grow(cand []int, pick int) error {
	if err := k.m.CondReset(); err != nil {
		return err
	}
	for {
		if err := k.m.CondAdd(pick, k.local[pick]); err != nil {
			return err
		}
		k.insert(pick)
		if len(k.idx) == len(cand) {
			return nil
		}
		if err := k.m.CondMeanInto(k.mean); err != nil {
			return err
		}
		if pick = k.worst(cand, k.mean); pick < 0 {
			return nil
		}
	}
}

// insert adds local attribute i and its reading to the report, keeping the
// pair sorted by index.
func (k *Kernel) insert(i int) {
	at := len(k.idx)
	k.idx = k.idx[:at+1]
	k.vals = k.vals[:at+1]
	for at > 0 && k.idx[at-1] > i {
		k.idx[at], k.vals[at] = k.idx[at-1], k.vals[at-1]
		at--
	}
	k.idx[at], k.vals[at] = i, k.local[i]
	k.picked[i] = true
}

// Commit conditions the replica on a report (§3.2 source step 4(b), sink
// step 2). The empty report is a no-op.
func (k *Kernel) Commit(idx []int, vals []float64) error {
	return k.m.Condition(idx, vals)
}

// Advance runs one whole epoch on a lone replica that hears every report:
// check the readings, predict, choose over all attributes, commit. It
// returns the number of values reported — what mc's trajectories, the bench
// replays and the failure-detector calibration count.
func (k *Kernel) Advance(truth []float64) (int, error) {
	if err := CheckReadings(truth); err != nil {
		return 0, err
	}
	k.Predict()
	idx, vals, err := k.Choose(truth, nil)
	if err != nil {
		return 0, err
	}
	return len(idx), k.Commit(idx, vals)
}
