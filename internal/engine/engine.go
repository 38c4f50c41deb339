// Package engine is the parallel experiment runner underneath kenbench and
// kensim. An experiment (one paper figure, one scheme comparison) decomposes
// into independent cells — (scheme × config × trace window) units that share
// no mutable state — and the engine executes those cells across a bounded
// worker pool while a keyed, single-flight artifact cache deduplicates the
// expensive inputs they share: generated traces, trained models, Monte
// Carlo evaluators and clique partitions.
//
// # Determinism
//
// Parallel execution must be invisible in the results. The engine
// guarantees this by construction:
//
//   - Map returns results in item order, whatever order cells finish in.
//   - Cells receive no shared mutable state; artifacts handed out by the
//     cache are treated as immutable by convention.
//   - Randomness inside a cell is seeded from the experiment seed and the
//     cell's identity via CellSeed, never from a shared RNG whose
//     consumption order would depend on scheduling.
//
// Together these make a Workers=8 run byte-identical to a Workers=1 run
// (enforced by the golden tests in internal/bench).
package engine

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"sync"

	"ken/internal/obs"
)

// Options configure an Engine.
type Options struct {
	// Workers bounds concurrent cells; <= 0 uses runtime.GOMAXPROCS(0).
	Workers int
	// Obs, when non-nil, receives per-cell timers and cache hit/miss
	// counters (engine_* metrics). Nil runs dark at zero cost.
	Obs *obs.Observer
}

// Engine is a worker pool plus a shared artifact cache. It is safe for
// concurrent use; a single Engine is meant to outlive many experiments so
// artifacts deduplicate across them.
type Engine struct {
	workers int
	sem     chan struct{}
	cache   *Cache

	mCells    obs.Counter // engine_cells_total
	mCellErrs obs.Counter // engine_cell_errors_total
	tCell     obs.Timer   // engine_cell_seconds
}

// New builds an engine. The zero Options give a GOMAXPROCS-wide pool with
// observability off.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	reg := opts.Obs.Registry()
	return &Engine{
		workers:   w,
		sem:       make(chan struct{}, w),
		cache:     NewCache(opts.Obs),
		mCells:    reg.Counter("engine_cells_total"),
		mCellErrs: reg.Counter("engine_cell_errors_total"),
		tCell:     reg.Timer("engine_cell_seconds"),
	}
}

// Workers returns the pool width.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's shared artifact cache.
func (e *Engine) Cache() *Cache { return e.cache }

// inCellKey marks contexts handed to parallel cells, so a nested Map from
// inside a cell degrades to inline sequential execution instead of
// deadlocking on the pool semaphore.
type inCellKey struct{}

// scopeKey carries the trace scope path through cell contexts.
type scopeKey struct{}

// WithScope returns a context whose trace scope gains one path segment
// (nested under any existing scope with "/"). Experiments set a base scope
// before calling Map; Map then appends each cell's index, so events from
// concurrent cells sharing one trace file stay attributable — and, because
// the segment is the item index, a Workers=8 trace labels events exactly
// like a Workers=1 trace.
func WithScope(ctx context.Context, label string) context.Context {
	if label == "" {
		return ctx
	}
	if prev := Scope(ctx); prev != "" {
		label = prev + "/" + label
	}
	return context.WithValue(ctx, scopeKey{}, label)
}

// Scope returns the trace scope accumulated on the context ("" when
// unset). Pass it to core.RunOptions.Scope or obs.Observer.Scoped.
func Scope(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(scopeKey{}).(string)
	return s
}

// Map runs fn over every item and returns the results in item order. Cells
// run concurrently up to the pool width; the first cell error cancels the
// cells that have not started yet and is returned (preferring a real error
// over the cancellations it induced). A canceled ctx stops new cells
// between items. A nil engine, a single-worker pool, or a call from inside
// another cell all run the items inline in order — same results, no
// concurrency.
func Map[T, R any](ctx context.Context, e *Engine, items []T, fn func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	if e == nil || e.workers <= 1 || len(items) == 1 || ctx.Value(inCellKey{}) != nil {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r, err := runCell(ctx, e, i, item, fn)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(context.WithValue(ctx, inCellKey{}, true))
	defer cancel()
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i := range items {
		select {
		case <-cctx.Done():
			errs[i] = cctx.Err()
			continue
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, item T) {
			defer wg.Done()
			defer func() { <-e.sem }()
			r, err := runCell(cctx, e, i, item, fn)
			out[i], errs[i] = r, err
			if err != nil {
				cancel()
			}
		}(i, items[i])
	}
	wg.Wait()
	return out, firstError(errs)
}

// runCell executes one cell with per-cell timing. Clock access lives
// behind obs.Timer.Start so this package stays free of wall-clock reads
// (docs/ENGINE.md, "Determinism and seeding discipline"); a nil engine
// leaves the handles zero, so it runs dark at no cost.
func runCell[T, R any](ctx context.Context, e *Engine, i int, item T, fn func(ctx context.Context, idx int, item T) (R, error)) (R, error) {
	var tCell obs.Timer
	var mCells, mCellErrs obs.Counter
	if e != nil {
		tCell, mCells, mCellErrs = e.tCell, e.mCells, e.mCellErrs
	}
	stop := tCell.Start()
	r, err := fn(WithScope(ctx, strconv.Itoa(i)), i, item)
	stop()
	mCells.Inc()
	if err != nil {
		mCellErrs.Inc()
	}
	return r, err
}

// firstError picks the error to surface from a cell batch: the
// lowest-index error that is not a cancellation knock-on, falling back to
// the lowest-index error of any kind.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// CellSeed derives a deterministic per-cell RNG seed from an experiment
// seed and the cell's identity. Distinct labels decorrelate; the same
// (base, labels) always yields the same seed, so results do not depend on
// scheduling or worker count. The FNV-64a hash runs inline over the label
// bytes — no hash.Hash or []byte conversion allocations — with the same
// constants and NUL label separator as the hash/fnv implementation it
// replaces, so historical seeds are unchanged (pinned by the golden test).
func CellSeed(base int64, labels ...string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= prime64
		}
		// NUL separator byte: XOR with zero is the identity, leaving only
		// the multiply.
		h *= prime64
	}
	return base ^ int64(h)
}

// KeyMatrix fingerprints a float64 matrix for use in cache keys. It hashes
// dimensions and raw float bits with FNV-64a — cheap, deterministic, and
// collision-resistant enough for the handful of training matrices one
// benchmark run touches.
func KeyMatrix(rows [][]float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(rows)))
	for _, row := range rows {
		put(uint64(len(row)))
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	s := h.Sum64()
	const hex = "0123456789abcdef"
	var out [16]byte
	for i := range out {
		out[i] = hex[(s>>(60-4*i))&0xf]
	}
	return string(out[:])
}
