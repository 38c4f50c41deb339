package cliques

import (
	"fmt"
	"hash/fnv"
	"sync"

	"ken/internal/mc"
	"ken/internal/model"
	"ken/internal/protocol"
)

// MCEvaluator estimates m_C by fitting a LinearGaussian model to the
// clique's training columns and running the Monte Carlo protocol simulation
// of §4.4. Estimates are cached per clique (the partitioning algorithms
// revisit the same cliques many times, and cost sweeps over different
// topologies reuse the same m values — m depends only on the data and ε,
// never on the topology).
type MCEvaluator struct {
	train  [][]float64 // [t][attribute]
	eps    []float64
	fitCfg model.FitConfig
	mcCfg  mc.Config

	mu    sync.Mutex
	cache map[string]float64
}

var _ Evaluator = (*MCEvaluator)(nil)

// NewMCEvaluator builds an evaluator over the full training matrix
// (train[t][i] = attribute i at step t) with per-attribute error bounds.
func NewMCEvaluator(train [][]float64, eps []float64, fitCfg model.FitConfig, mcCfg mc.Config) (*MCEvaluator, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("cliques: empty training data")
	}
	n := len(train[0])
	if len(eps) != n {
		return nil, fmt.Errorf("cliques: eps dim %d, training dim %d", len(eps), n)
	}
	for i, e := range eps {
		if e <= 0 {
			return nil, fmt.Errorf("cliques: non-positive epsilon %v for attribute %d", e, i)
		}
	}
	return &MCEvaluator{
		train:  train,
		eps:    eps,
		fitCfg: fitCfg,
		mcCfg:  mcCfg,
		cache:  map[string]float64{},
	}, nil
}

// M implements Evaluator.
func (e *MCEvaluator) M(clique []int) (float64, error) {
	if len(clique) == 0 {
		return 0, ErrEmptyClique
	}
	key := cliqueKey(clique)
	e.mu.Lock()
	if v, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return v, nil
	}
	e.mu.Unlock()

	cols, eps, err := protocol.Project(e.train, e.eps, clique)
	if err != nil {
		return 0, fmt.Errorf("cliques: %w", err)
	}
	mdl, err := model.FitLinearGaussian(cols, e.fitCfg)
	if err != nil {
		return 0, fmt.Errorf("cliques: fitting clique %v: %w", clique, err)
	}
	cfg := e.mcCfg
	// Derive a per-clique seed so that estimates are deterministic yet
	// decorrelated across cliques.
	h := fnv.New64a()
	h.Write([]byte(key))
	cfg.Seed = e.mcCfg.Seed ^ int64(h.Sum64())
	m, err := mc.ExpectedReports(mdl, eps, cfg)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.cache[key] = m
	e.mu.Unlock()
	return m, nil
}

// CacheSize returns the number of cached clique estimates (for tests and
// progress reporting).
func (e *MCEvaluator) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// FuncEvaluator adapts a plain function to the Evaluator interface —
// convenient for oracle-based tests and ablations.
type FuncEvaluator func(clique []int) (float64, error)

// M implements Evaluator.
func (f FuncEvaluator) M(clique []int) (float64, error) { return f(clique) }
