package gauss

import (
	"errors"
	"fmt"
	"math"
)

// Incremental conditioning evaluator. The greedy report search (model
// layer) repeatedly asks "what would the conditional mean be if, on top of
// the attributes already in the report, I also reported x_i?" — an
// observed set that only ever grows by one index per round. Answering each
// round from scratch refactorizes the observed block at O(m³) plus
// allocations; the evaluator instead caches the Cholesky factor of the
// observed block in insertion order inside the Workspace and grows it by
// one bordered row per CondAdd (mat.Cholesky.Extend, O(m²)), so a whole
// search costs what one from-scratch evaluation used to.
//
// The cache is keyed on (Gaussian pointer, Workspace generation): any
// Predict/ObserveExact bumps the generation, so a stale evaluator answers
// errCondStale rather than serving a factor of dead state. The evaluator
// never mutates the Gaussian — hypothesis evaluation must stay side-effect
// free, because only the source runs the search and replica lock-step
// requires the sink's state transitions to be independent of it.

// errCondStale is returned by CondAdd/CondMeanInto when the underlying
// Gaussian mutated (or changed identity) after CondReset. Package-level so
// hot-path error returns do not allocate.
var errCondStale = errors.New("gauss: conditioning evaluator stale; CondReset required")

// CondReset seeds the workspace's incremental-conditioning evaluator for g
// with an empty observed set, binding the cache to g's current generation.
func (g *Gaussian) CondReset(ws *Workspace) error {
	if ws.n != len(g.mean) {
		return fmt.Errorf("gauss: workspace dim %d, distribution dim %d", ws.n, len(g.mean))
	}
	ws.evalG = g
	ws.evalGen = ws.gen
	ws.evalIdx = ws.evalIdx[:0]
	ws.evalVals = ws.evalVals[:0]
	ws.evalDelta = ws.evalDelta[:0]
	ws.evalCh.Reset()
	return nil
}

// CondAdd grows the hypothetical observed set by attribute i at value v,
// extending the cached factor by one bordered row. On error (out-of-range
// or duplicate index, non-finite value, stale cache, or a non-positive new
// pivot — the evaluator has no jitter ladder) the evaluator is unchanged
// and the caller should fall back to the from-scratch Condition path.
func (g *Gaussian) CondAdd(i int, v float64, ws *Workspace) error {
	if ws.evalG != g || ws.evalGen != ws.gen {
		return errCondStale
	}
	if i < 0 || i >= ws.n {
		return fmt.Errorf("gauss: condition index %d out of range %d", i, ws.n)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: value %v for attribute %d", ErrNotFinite, v, i)
	}
	for _, j := range ws.evalIdx {
		if j == i {
			return fmt.Errorf("gauss: attribute %d already in the observed set", i)
		}
	}
	m := len(ws.evalIdx)
	col := ws.evalCol[:m]
	for k, j := range ws.evalIdx {
		col[k] = g.cov.At(j, i)
	}
	if err := ws.evalCh.Extend(col, g.cov.At(i, i)); err != nil {
		return err
	}
	// The evaluator slices are preallocated to cap n by NewWorkspace and
	// truncated by CondReset; m+1 ≤ n because i is range-checked and
	// duplicates are rejected above, so these reslices cannot grow.
	ws.evalIdx = ws.evalIdx[:m+1]
	ws.evalIdx[m] = i
	ws.evalVals = ws.evalVals[:m+1]
	ws.evalVals[m] = v
	ws.evalDelta = ws.evalDelta[:m+1]
	ws.evalDelta[m] = v - g.mean[i]
	return nil
}

// CondMeanInto writes the full-length conditional mean given the
// evaluator's current observed set into dst: observed positions take their
// hypothesised values, the rest their conditional expectations — the same
// answer as ConditionalMean on the equivalent map, to numerical tolerance,
// with no allocation and no refactorization. The Gaussian is not mutated.
func (g *Gaussian) CondMeanInto(dst []float64, ws *Workspace) error {
	if ws.evalG != g || ws.evalGen != ws.gen {
		return errCondStale
	}
	n := ws.n
	if len(dst) != n {
		return fmt.Errorf("gauss: CondMeanInto dst len %d, want %d", len(dst), n)
	}
	m := len(ws.evalIdx)
	if m == 0 {
		copy(dst, g.mean)
		return nil
	}
	// w = Σ_bb⁻¹ (x_b − μ_b) against the insertion-ordered cached factor.
	w := ws.evalW[:m]
	copy(w, ws.evalDelta)
	if err := ws.evalCh.SolveVecInPlace(w); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		s := g.mean[r]
		for k, j := range ws.evalIdx {
			s += g.cov.At(r, j) * w[k]
		}
		dst[r] = s
	}
	for k, j := range ws.evalIdx {
		dst[j] = ws.evalVals[k]
	}
	return nil
}
