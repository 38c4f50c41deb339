package cliques

import (
	"fmt"
	"hash/fnv"
	"sync"

	"ken/internal/mat"
	"ken/internal/mc"
	"ken/internal/model"
)

// MCEvaluator estimates m_C by fitting a LinearGaussian model to the
// clique's training columns and running the Monte Carlo protocol simulation
// of §4.4. Each fit is model.FitColumns of the clique's own columns of the
// training matrix. Estimates are cached per clique (the partitioning
// algorithms revisit the same cliques many times, and cost sweeps over
// different topologies reuse the same m values — m depends only on the data
// and ε, never on the topology); an estimate mWithin stopped early is not.
type MCEvaluator struct {
	train  [][]float64
	fitCfg model.FitConfig
	eps    []float64
	mcCfg  mc.Config

	mu    sync.Mutex
	cache map[string]float64
}

var _ Evaluator = (*MCEvaluator)(nil)

// NewMCEvaluator builds an evaluator over the full training matrix
// (train[t][i] = attribute i at step t) with per-attribute error bounds. A
// training matrix no fit can read is refused by the first estimate, whose
// fit fails before any Monte Carlo runs.
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
		fitCfg: fitCfg,
		eps:    eps,
		mcCfg:  mcCfg,
		cache:  map[string]float64{},
	}, nil
}

// M implements Evaluator: mWithin with no limit.
func (e *MCEvaluator) M(clique []int) (float64, error) {
	m, _, err := e.mWithin(clique, mc.NoLimit)
	return m, err
}

// mWithin estimates m_C unless the clique's Monte Carlo run reports more
// than limit values over its e.mcCfg.Epochs() epochs, in which case it
// stops there and complete is false (mc.ExpectedReportsWithin). A cached
// estimate is complete whatever the limit.
func (e *MCEvaluator) mWithin(clique []int, limit int) (m float64, complete bool, err error) {
	if len(clique) == 0 {
		return 0, false, ErrEmptyClique
	}
	key := cliqueKey(clique)
	e.mu.Lock()
	if v, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return v, true, nil
	}
	e.mu.Unlock()

	mdl, err := model.FitColumns(e.train, clique, e.fitCfg)
	if err != nil {
		return 0, false, fmt.Errorf("cliques: fitting clique %v: %w", clique, err)
	}
	cfg := e.mcCfg
	// Derive a per-clique seed so that estimates are deterministic yet
	// decorrelated across cliques.
	h := fnv.New64a()
	h.Write([]byte(key))
	cfg.Seed = e.mcCfg.Seed ^ int64(h.Sum64())
	m, complete, err = mc.ExpectedReportsWithin(mdl, mat.Select(e.eps, clique), cfg, limit)
	if err != nil || !complete {
		return 0, false, err
	}
	e.mu.Lock()
	e.cache[key] = m
	e.mu.Unlock()
	return m, true, nil
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
