package core

import (
	"fmt"
	"strconv"
	"strings"

	"ken/internal/cliques"
	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
)

// SchemeSpec declaratively describes a collection scheme for Build: one
// config struct instead of a different positional constructor per scheme.
// Scheme selects the constructor; the remaining fields are interpreted by
// that scheme and ignored otherwise.
type SchemeSpec struct {
	// Scheme is the scheme's name: "TinyDB", "ApproxCache", "Average",
	// "Ken", or "DjC<k>" (Ken with K = <k>). Matching is case-insensitive
	// and the short aliases "apc", "cache", "avg" and "djc" are accepted.
	Scheme string
	// Name overrides the scheme's display name in results (optional).
	Name string
	// N is the attribute count for schemes that need nothing else
	// (TinyDB). When zero it is inferred from Eps or Train.
	N int
	// Eps are the per-attribute error bounds.
	Eps []float64
	// Train is the model-learning prefix (Average, Ken).
	Train [][]float64
	// FitCfg controls model learning.
	FitCfg model.FitConfig
	// Partition fixes the Disjoint-Cliques partition (Ken). When nil, a
	// Greedy-K partition is selected on Topology (or a uniform ×5
	// topology when Topology is nil, the default of the paper's cost
	// study).
	Partition *cliques.Partition
	// K is the maximum clique size for automatic partition selection.
	K int
	// NeighborLimit caps the greedy partitioner's candidate pools.
	NeighborLimit int
	// MC sizes the Monte Carlo m_C estimation behind partition selection.
	MC mc.Config
	// Metric picks the greedy partitioner's objective.
	Metric cliques.Metric
	// Topology prices messages; nil gives topology-independent
	// accounting.
	Topology *network.Topology
	// Prob enables §6 probabilistic reporting (Ken).
	Prob *ProbConfig
	// Lossy wraps the scheme with §6 message-loss injection (Ken).
	Lossy *LossyConfig
	// Obs attaches metrics and protocol event tracing.
	Obs *obs.Observer
}

// dim infers the attribute count from the spec.
func (s SchemeSpec) dim() int {
	if s.N > 0 {
		return s.N
	}
	if len(s.Eps) > 0 {
		return len(s.Eps)
	}
	if len(s.Train) > 0 {
		return len(s.Train[0])
	}
	return 0
}

// Build constructs the scheme spec.Scheme names. "DjC<k>" (any case) is Ken
// with K = <k> and a matching display name.
func Build(spec SchemeSpec) (Scheme, error) {
	name := strings.ToLower(strings.TrimSpace(spec.Scheme))
	if k, ok := parseDjC(name); ok {
		spec.K = k
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("DjC%d", k)
		}
		name = "ken"
	}
	switch name {
	case "tinydb":
		return NewTinyDB(spec.dim(), spec.Topology)
	case "approxcache", "apc", "cache":
		return NewCache(spec.Eps, spec.Topology)
	case "average", "avg":
		a, err := NewAverage(spec.Train, spec.Eps, spec.FitCfg, spec.Topology)
		if err != nil {
			return nil, err
		}
		// Events only: Avg feeds no ken_* series, which count Ken's values.
		a.loop.Tracer = spec.Obs.Tracer()
		return a, nil
	case "ken", "djc":
		return buildKen(spec)
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (have tinydb, approxcache, average, ken, djc<k>)", spec.Scheme)
	}
}

// parseDjC matches "djc<k>" with a positive integer k.
func parseDjC(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "djc")
	if !ok || rest == "" {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 1 {
		return 0, false
	}
	return k, true
}

// buildKen assembles the Disjoint-Cliques scheme, selecting a Greedy-K
// partition when the spec does not fix one.
func buildKen(spec SchemeSpec) (Scheme, error) {
	part := spec.Partition
	if part == nil {
		k := spec.K
		if k < 1 {
			return nil, fmt.Errorf("core: Ken needs a Partition or K >= 1 for greedy selection")
		}
		var err error
		part, err = cliques.GreedyFromTraining(spec.Train, spec.Eps, spec.FitCfg, spec.MC, spec.Topology, cliques.GreedyConfig{
			K:             k,
			NeighborLimit: spec.NeighborLimit,
			Metric:        spec.Metric,
		})
		if err != nil {
			return nil, fmt.Errorf("core: greedy k=%d partition selection: %w", k, err)
		}
	}
	cfg := KenConfig{
		Name:      spec.Name,
		Partition: part,
		Train:     spec.Train,
		Eps:       spec.Eps,
		FitCfg:    spec.FitCfg,
		Topology:  spec.Topology,
		Prob:      spec.Prob,
		Obs:       spec.Obs,
	}
	if spec.Lossy != nil {
		return NewLossyKen(cfg, *spec.Lossy)
	}
	return NewKen(cfg)
}
