// Package obs is the observability layer of the Ken pipeline: a
// dependency-free, concurrency-safe metrics registry (counters, gauges,
// histograms with quantile snapshots, timers), a structured protocol event
// tracer that writes JSONL sinks (trace.go), an expvar-compatible +
// Prometheus-text HTTP endpoint with pprof wired in (http.go), and a shared
// log/slog setup helper for the cmd binaries (log.go).
//
// Everything Ken's value proposition rests on is a number — reports
// suppressed, messages priced, Joules spent, ε-violations audited — and
// this package gives those numbers one uniform home instead of the ad-hoc
// result structs and print statements the binaries grew up with.
//
// # Nil fast path
//
// Instrumentation must cost nothing when nobody is watching. Counter,
// Gauge, Histogram, Timer and Span are one-pointer value types whose zero
// value is the off handle, and a nil *Registry hands out zero handles; the
// methods of a zero handle and of a nil *Tracer return immediately.
// Instrumented code therefore resolves its handles once at construction
// time and calls them unconditionally on the hot path — with no observer
// attached the calls are a nil check and a return, allocating nothing (see
// TestAllocBudgetNilFastPath and BenchmarkNilFastPath). A handle cannot be
// compared with nil, so there is no guard to write; Span.Active is the one
// liveness test. Registry.Lookups counts handle lookups, and the allocation
// budgets hold it still across steady-state epochs and frames.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. It is a handle to
// a registry cell, copied by value; the zero Counter is the off handle.
type Counter struct {
	v *atomic.Int64
}

// Inc adds one. No-op on the zero counter.
func (c Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone; this
// is not enforced). No-op on the zero counter.
func (c Counter) Add(n int64) {
	if c.v != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for the zero counter).
func (c Counter) Value() int64 {
	if c.v == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can move both ways (alive-node count,
// remaining energy, current max error). The zero Gauge is the off handle.
type Gauge struct {
	bits *atomic.Uint64
}

// Set stores v. No-op on the zero gauge.
func (g Gauge) Set(v float64) {
	if g.bits != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add accumulates v with a CAS loop. No-op on the zero gauge.
func (g Gauge) Add(v float64) {
	if g.bits == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for the zero gauge).
func (g Gauge) Value() float64 {
	if g.bits == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of every histogram: one underflow
// bucket plus base-√2 exponential buckets spanning 2^-33 .. 2^32 — wide
// enough for nanosecond-scale timer readings (stored as seconds) and for
// byte/message counts, with ≤ ~20% relative quantile error.
const histBuckets = 132

// histUpper returns the inclusive upper bound of bucket i.
func histUpper(i int) float64 {
	return math.Pow(2, float64(i-66)/2)
}

// histIndex maps a value onto the bucket grid. Non-positive and NaN values
// land in the underflow bucket.
func histIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	i := 66 + int(math.Ceil(2*math.Log2(v)))
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Histogram is a fixed-memory exponential-bucket histogram. Observations
// are commutative atomic increments, so snapshots are deterministic for a
// given multiset of observations regardless of goroutine interleaving. The
// zero Histogram is the off handle.
type Histogram struct {
	h *histogram
}

// histogram is the registry cell behind a Histogram handle.
type histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // encMM-encoded; 0 means "no observation yet"
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// encMM/decMM encode a float for the min/max slots with 0 reserved as the
// "unset" sentinel, so an observed value of exactly 0.0 stays
// distinguishable from no observation at all.
func encMM(v float64) uint64 { return math.Float64bits(v) + 1 }
func decMM(b uint64) float64 { return math.Float64frombits(b - 1) }

// Observe records one value. No-op on the zero histogram.
func (h Histogram) Observe(v float64) {
	if h.h != nil {
		h.h.observe(v)
	}
}

func (h *histogram) observe(v float64) {
	h.buckets[histIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if old != 0 && decMM(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, encMM(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if old != 0 && decMM(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, encMM(v)) {
			break
		}
	}
	// Count is bumped last so a snapshot that observes count > 0 always
	// reads initialized min/max slots.
	h.count.Add(1)
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot captures count, sum, min/max and interpolated quantiles. The
// zero snapshot is returned for the zero or an empty histogram.
func (h Histogram) Snapshot() HistSnapshot {
	if h.h == nil {
		return HistSnapshot{}
	}
	return h.h.snapshot()
}

func (h *histogram) snapshot() HistSnapshot {
	n := h.count.Load()
	if n == 0 {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count: n,
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Min:   decMM(h.minBits.Load()),
		Max:   decMM(h.maxBits.Load()),
	}
	s.P50 = h.quantile(n, 0.50, s.Min, s.Max)
	s.P90 = h.quantile(n, 0.90, s.Min, s.Max)
	s.P95 = h.quantile(n, 0.95, s.Min, s.Max)
	s.P99 = h.quantile(n, 0.99, s.Min, s.Max)
	return s
}

// quantile estimates the q-quantile from bucket counts, clamped into the
// exact observed [min, max] range.
func (h *histogram) quantile(n int64, q, lo, hi float64) float64 {
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			v := histUpper(i)
			return math.Max(lo, math.Min(hi, v))
		}
	}
	return hi
}

// Timer records durations into a histogram of seconds. The zero Timer is
// the off handle.
type Timer struct {
	h Histogram
}

// Observe records one duration. No-op on the zero timer.
func (t Timer) Observe(d time.Duration) { t.h.Observe(d.Seconds()) }

// noopStop is the shared stop function handed out by the zero timer, so
// the off path stays allocation-free.
var noopStop = func() {}

// Start reads the wall clock and returns a stop function that records the
// elapsed time; it keeps clock access inside obs so deterministic packages
// can time their work without touching time.Now themselves (docs/ENGINE.md,
// "Determinism and seeding discipline"). The zero timer returns a shared
// no-op stop.
func (t Timer) Start() func() {
	if t.h.h == nil {
		return noopStop
	}
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Snapshot exposes the underlying histogram (seconds).
func (t Timer) Snapshot() HistSnapshot { return t.h.Snapshot() }

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is fully usable and hands out zero (off)
// handles, making it the "observability off" mode.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
	help    map[string]string
	lookups atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]any{}, help: map[string]string{}}
}

// Lookups counts the handles the registry has handed out and the scoped
// views built on it (Observer.Scoped). Handles are resolved once, at
// construction: the allocation budgets assert that a steady-state epoch or
// frame leaves this count unchanged. 0 on a nil registry.
func (r *Registry) Lookups() int64 {
	if r == nil {
		return 0
	}
	return r.lookups.Load()
}

// Describe attaches a one-line help string to a metric name, emitted as
// the Prometheus # HELP line. May be called before or after the metric
// is first used; the last call wins. No-op on a nil registry.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = map[string]string{}
	}
	r.help[name] = help
}

// lookup returns the named metric cell, creating it on first use, and
// panics when the name is already registered with a different type — a
// programming error, matching Prometheus client behaviour. A nil registry
// returns nil, the cell of the off handle.
func lookup[T any](r *Registry, name string) *T {
	if r == nil {
		return nil
	}
	r.countLookup()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different type (%T)", name, m))
		}
		return t
	}
	t := new(T)
	r.metrics[name] = t
	return t
}

// countLookup records one lookup. No-op on a nil registry.
func (r *Registry) countLookup() {
	if r != nil {
		r.lookups.Add(1)
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns the zero (off) handle.
func (r *Registry) Counter(name string) Counter {
	return Counter{lookup[atomic.Int64](r, name)}
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns the zero handle.
func (r *Registry) Gauge(name string) Gauge {
	return Gauge{lookup[atomic.Uint64](r, name)}
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns the zero handle.
func (r *Registry) Histogram(name string) Histogram {
	return Histogram{lookup[histogram](r, name)}
}

// Timer returns a timer over the named histogram (of seconds). A nil
// registry returns the zero handle.
func (r *Registry) Timer(name string) Timer {
	return Timer{r.Histogram(name)}
}

// Snapshot is a point-in-time copy of every metric, with deterministic
// (sorted) marshalling — the payload of kenbench's -metrics-out file.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Help       map[string]string       `json:"help,omitempty"`
}

// Snapshot captures every registered metric. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *atomic.Int64:
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[name] = m.Load()
		case *atomic.Uint64:
			if s.Gauges == nil {
				s.Gauges = map[string]float64{}
			}
			s.Gauges[name] = math.Float64frombits(m.Load())
		case *histogram:
			if s.Histograms == nil {
				s.Histograms = map[string]HistSnapshot{}
			}
			s.Histograms[name] = m.snapshot()
		}
	}
	for name, help := range r.help {
		if s.Help == nil {
			s.Help = map[string]string{}
		}
		s.Help[name] = help
	}
	return s
}

// names returns the sorted metric names (for deterministic text output).
func (s Snapshot) names() []string {
	var out []string
	for n := range s.Counters {
		out = append(out, n)
	}
	for n := range s.Gauges {
		out = append(out, n)
	}
	for n := range s.Histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Observer bundles the two observability sinks instrumented code accepts.
// A nil *Observer (and nil fields) disables everything; the accessors are
// nil-safe so call sites never branch.
type Observer struct {
	Reg   *Registry
	Trace *Tracer
}

// Registry returns the metrics registry (nil when unobserved).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Tracer returns the protocol event tracer (nil when unobserved).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

// Scoped returns an Observer whose trace events carry scope (appended to
// any scope the tracer already has, "/"-separated). Metrics are shared
// with the receiver. Nil-safe: without a tracer, or with an empty scope,
// the receiver is returned unchanged. A view is resolved once per run, like
// a metric handle, and counts as a lookup on the registry (Lookups).
func (o *Observer) Scoped(scope string) *Observer {
	if o == nil {
		return o
	}
	o.Reg.countLookup()
	if o.Trace == nil || scope == "" {
		return o
	}
	return &Observer{Reg: o.Reg, Trace: o.Trace.withScope(scope)}
}
