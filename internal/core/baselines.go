package core

import (
	"fmt"

	"ken/internal/network"
	"ken/internal/obs"
	"ken/internal/protocol"
)

// TinyDB is the exact-collection baseline (§5.2): every node reports every
// reading to the base station, giving zero error at full communication
// cost.
type TinyDB struct {
	n   int
	top *network.Topology // nil → unit cost per reported value
	est []float64         // Step's estimate view
	all []int             // Step's report view: 0…n−1, every step
}

var _ Scheme = (*TinyDB)(nil)

// NewTinyDB builds the baseline over n attributes; top may be nil for
// topology-independent accounting (one cost unit per value).
func NewTinyDB(n int, top *network.Topology) (*TinyDB, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: TinyDB needs n >= 1, got %d", n)
	}
	if top != nil && top.N() != n {
		return nil, fmt.Errorf("core: topology has %d nodes, scheme has %d", top.N(), n)
	}
	s := &TinyDB{n: n, top: top, est: make([]float64, n), all: make([]int, n)}
	for i := range s.all {
		s.all[i] = i
	}
	return s, nil
}

// Name implements Scheme.
func (s *TinyDB) Name() string { return "TinyDB" }

// Dim implements Scheme.
func (s *TinyDB) Dim() int { return s.n }

// Step implements Scheme.
func (s *TinyDB) Step(truth []float64) ([]float64, StepStats, error) {
	if len(truth) != s.n {
		return nil, StepStats{}, fmt.Errorf("core: truth dim %d, want %d", len(truth), s.n)
	}
	if err := protocol.CheckReadings(truth); err != nil {
		return nil, StepStats{}, err
	}
	copy(s.est, truth)
	st := StepStats{ValuesReported: s.n, Reported: s.all}
	st.Bytes = obs.WireBytesPerValue * s.n
	if s.top == nil {
		st.SinkCost = float64(s.n)
	} else {
		for i := 0; i < s.n; i++ {
			st.SinkCost += s.top.CommToBase(i)
		}
	}
	return s.est, st, nil
}

// Cache is Approximate Caching (Olston et al., §5.2): source and sink both
// remember the last reported reading; a node reports only when the current
// reading drifts more than ε from the cached one. In modelling terms it is
// a degenerate Markov model with no dynamics.
type Cache struct {
	n      int
	eps    []float64
	cached []float64
	primed bool
	top    *network.Topology
	est    []float64 // Step's estimate view
	sent   []int     // Step's report view
}

var _ Scheme = (*Cache)(nil)

// NewCache builds an approximate-caching scheme with the given reporting
// thresholds (set to match Ken's ε, as in the paper). top may be nil.
func NewCache(eps []float64, top *network.Topology) (*Cache, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("core: Cache needs at least one attribute")
	}
	for i, e := range eps {
		if e <= 0 {
			return nil, fmt.Errorf("core: non-positive epsilon %v for attribute %d", e, i)
		}
	}
	if top != nil && top.N() != len(eps) {
		return nil, fmt.Errorf("core: topology has %d nodes, scheme has %d", top.N(), len(eps))
	}
	return &Cache{
		n:      len(eps),
		eps:    append([]float64(nil), eps...),
		cached: make([]float64, len(eps)),
		top:    top,
		est:    make([]float64, len(eps)),
	}, nil
}

// Name implements Scheme.
func (s *Cache) Name() string { return "ApC" }

// Dim implements Scheme.
func (s *Cache) Dim() int { return s.n }

// Step implements Scheme. The first step reports everything to prime the
// caches.
func (s *Cache) Step(truth []float64) ([]float64, StepStats, error) {
	if len(truth) != s.n {
		return nil, StepStats{}, fmt.Errorf("core: truth dim %d, want %d", len(truth), s.n)
	}
	if err := protocol.CheckReadings(truth); err != nil {
		return nil, StepStats{}, err
	}
	st := StepStats{Reported: s.sent[:0]}
	for i, v := range truth {
		d := v - s.cached[i]
		if !s.primed || d > s.eps[i] || d < -s.eps[i] {
			s.cached[i] = v
			st.ValuesReported++
			st.Reported = append(st.Reported, i)
			if s.top == nil {
				st.SinkCost++
			} else {
				st.SinkCost += s.top.CommToBase(i)
			}
		}
	}
	s.primed, s.sent = true, st.Reported
	st.Bytes = obs.WireBytesPerValue * st.ValuesReported
	copy(s.est, s.cached)
	return s.est, st, nil
}
