package gauss

import (
	"errors"
	"fmt"
	"math"

	"ken/internal/mat"
)

// Incremental conditioning evaluator. The greedy report search (model
// layer) repeatedly asks "what would the conditional mean be if, on top of
// the attributes already in the report, I also reported x_i?" — an
// observed set that only ever grows by one index per round. Answering each
// round from scratch refactorizes the observed block at O(m³) plus
// allocations; the evaluator instead caches the Cholesky factor of the
// observed block in insertion order inside the Workspace and grows it by
// one bordered row per CondAdd, so a whole search costs what one
// from-scratch evaluation used to.
//
// Greedy-k's cliques are small, so many searches end within two rounds,
// so the first two rows of the factor live in three Workspace scalars
// (l00, l10, l11) and the first two rounds are written out: the bordered
// row and pivot by Extend's operations, the answer by forwardSolve's and
// backSolve's, each in the same order, so the answers are the generic
// path's bits. A third CondAdd first replays Extend over the two held
// indices into the mat.Cholesky (Σ cannot move under a bound evaluator, so
// the replay repeats the scalars' bits) and from then on the generic
// factor grows and answers (mat.Cholesky.Extend, O(m²)). A pivot the
// written-out row refuses is handed to the same replay and Extend, so a
// refusal is Extend's, word for word.
//
// The cache is keyed on (Gaussian pointer, Workspace generation): any
// Predict/ObserveExact bumps the generation, so a stale evaluator answers
// errCondStale rather than serving a factor of dead state. There is no
// fallback behind it: a stale or degenerate evaluator is the caller's
// error. The evaluator
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
// or duplicate index, non-finite value wrapping ErrNotFinite, stale cache,
// or a new pivot that is not positive wrapping ErrDegenerate) the evaluator
// is unchanged.
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
	if m >= 2 || !ws.extendSmall(g.cov.DataView(), i) {
		err := ws.materialise(g)
		if err == nil {
			err = ws.extend(g, ws.evalIdx, i)
		}
		if errors.Is(err, mat.ErrSingular) {
			return fmt.Errorf("%w: attribute %d: %w", ErrDegenerate, i, err)
		}
		if err != nil {
			return err
		}
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
// answer as ConditionalMean on the equivalent pair, to numerical tolerance,
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
	if m <= 2 {
		ws.condMeanSmall(dst, g.mean, g.cov.DataView())
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

// extendSmall is Extend for the first two rows of the factor, held in
// l00, l10 and l11, cov being Σ row-major: d = Σ_ii, less w0·w0 for
// w0 = Σ_{i0,i}/l00 in the second row, then the same pivot test and square
// root. It writes nothing and reports false when the pivot is refused; a
// non-finite Σ_ii or Σ_{i0,i} always is (l00 is finite and positive), so
// Extend words every refusal.
func (ws *Workspace) extendSmall(cov []float64, i int) bool {
	n := ws.n
	d := cov[i*n+i]
	var w0 float64
	if len(ws.evalIdx) == 1 {
		w0 = cov[ws.evalIdx[0]*n+i] / ws.l00
		d -= w0 * w0
	}
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return false
	}
	if len(ws.evalIdx) == 0 {
		ws.l00 = math.Sqrt(d)
	} else {
		ws.l10, ws.l11 = w0, math.Sqrt(d)
	}
	return true
}

// materialise brings the generic factor evalCh up to the held indices,
// replaying Extend over them when the small form kept them. evalCh always
// holds the factor of a prefix of them (CondReset empties it), so an equal
// size means it is current. Σ cannot move under a bound evaluator, so the
// replay repeats extendSmall's bits.
func (ws *Workspace) materialise(g *Gaussian) error {
	if ws.evalCh.Size() == len(ws.evalIdx) {
		return nil
	}
	ws.evalCh.Reset()
	for r, i := range ws.evalIdx {
		if err := ws.extend(g, ws.evalIdx[:r], i); err != nil {
			return err
		}
	}
	return nil
}

// extend grows evalCh, the factor of the block over held, by attribute i.
func (ws *Workspace) extend(g *Gaussian, held []int, i int) error {
	col := ws.evalCol[:len(held)]
	for k, j := range held {
		col[k] = g.cov.At(j, i)
	}
	return ws.evalCh.Extend(col, g.cov.At(i, i))
}

// condMeanSmall is CondMeanInto for one or two held attributes, the factor
// in l00, l10 and l11: forwardSolve's and backSolve's operations on the
// residuals, then each row μ_r + Σ_{r,i0}·w0 [+ Σ_{r,i1}·w1], the observed
// positions overwritten with their values. mu and cov are the Gaussian's,
// cov row-major.
func (ws *Workspace) condMeanSmall(dst, mu, cov []float64) {
	n, i0 := ws.n, ws.evalIdx[0]
	if len(ws.evalIdx) == 1 {
		w0 := ws.evalDelta[0] / ws.l00
		w0 = w0 / ws.l00
		for r := 0; r < n; r++ {
			s := mu[r]
			s += cov[r*n+i0] * w0
			dst[r] = s
		}
		dst[i0] = ws.evalVals[0]
		return
	}
	i1 := ws.evalIdx[1]
	y0 := ws.evalDelta[0] / ws.l00 // L·y = δ
	s := ws.evalDelta[1]
	s -= ws.l10 * y0
	y1 := s / ws.l11
	w1 := y1 / ws.l11 // Lᵀ·w = y
	s = y0
	s -= ws.l10 * w1
	w0 := s / ws.l00
	for r := 0; r < n; r++ {
		s := mu[r]
		s += cov[r*n+i0] * w0
		s += cov[r*n+i1] * w1
		dst[r] = s
	}
	dst[i0], dst[i1] = ws.evalVals[0], ws.evalVals[1]
}
