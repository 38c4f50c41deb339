package obs_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ken/internal/alloctest"
	"ken/internal/leaktest"
	"ken/internal/obs"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestCounterGaugeBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter=%d, want 5", got)
	}
	if again := reg.Counter("c"); again != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := reg.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge=%v, want 1.5", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h")
	for _, v := range []float64{1, 2, 4} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 7 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("snapshot=%+v, want count 3 sum 7 min 1 max 4", s)
	}
	if s.P50 != 2 || s.P90 != 4 || s.P95 != 4 || s.P99 != 4 {
		t.Fatalf("quantiles p50=%v p90=%v p95=%v p99=%v, want 2/4/4/4", s.P50, s.P90, s.P95, s.P99)
	}
}

// TestHistogramZeroMin checks the min/max sentinel encoding: an observed
// value of exactly 0.0 must be reported as the minimum, not confused with
// the "no observation yet" state.
func TestHistogramZeroMin(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h")
	h.Observe(0)
	h.Observe(5)
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 5 || s.Count != 2 {
		t.Fatalf("snapshot=%+v, want min 0 max 5 count 2", s)
	}
}

func TestEmptyHistogramSnapshotIsZero(t *testing.T) {
	reg := obs.NewRegistry()
	if s := reg.Histogram("h").Snapshot(); s != (obs.HistSnapshot{}) {
		t.Fatalf("empty snapshot=%+v, want zero", s)
	}
	var nilHist *obs.Histogram
	if s := nilHist.Snapshot(); s != (obs.HistSnapshot{}) {
		t.Fatalf("nil snapshot=%+v, want zero", s)
	}
}

// TestHistogramSingleObservation pins the quantile edge case every
// percentile of a one-sample distribution is that sample.
func TestHistogramSingleObservation(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h")
	h.Observe(3.5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("snapshot=%+v, want count 1 and min=max=sum=3.5", s)
	}
	if s.P50 != 3.5 || s.P90 != 3.5 || s.P95 != 3.5 || s.P99 != 3.5 {
		t.Fatalf("quantiles %v/%v/%v/%v, want all 3.5", s.P50, s.P90, s.P95, s.P99)
	}
}

// TestHistogramAllEqual pins the degenerate distribution: with every
// observation identical the quantiles must collapse onto that value, not
// interpolate across the containing bucket.
func TestHistogramAllEqual(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h")
	for i := 0; i < 100; i++ {
		h.Observe(7)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 700 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("snapshot=%+v, want count 100 sum 700 min=max=7", s)
	}
	if s.P50 != 7 || s.P90 != 7 || s.P95 != 7 || s.P99 != 7 {
		t.Fatalf("quantiles %v/%v/%v/%v, want all 7", s.P50, s.P90, s.P95, s.P99)
	}
}

func TestTimerRecordsSeconds(t *testing.T) {
	reg := obs.NewRegistry()
	tm := reg.Timer("t")
	tm.Observe(250 * time.Millisecond)
	tm.Observe(750 * time.Millisecond)
	s := tm.Snapshot()
	if s.Count != 2 || s.Sum != 1.0 {
		t.Fatalf("timer snapshot=%+v, want count 2 sum 1.0", s)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x")
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines; run with -race this is the concurrency-safety proof, and the
// final values double as a linearizability check (all updates commute).
func TestConcurrentUpdates(t *testing.T) {
	reg := obs.NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c") // concurrent lookup too
			g := reg.Gauge("g")
			h := reg.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(1 + i%4))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter=%d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("g").Value(); got != workers*perWorker*0.5 {
		t.Errorf("gauge=%v, want %v", got, workers*perWorker*0.5)
	}
	s := reg.Histogram("h").Snapshot()
	if s.Count != workers*perWorker || s.Min != 1 || s.Max != 4 {
		t.Errorf("histogram snapshot=%+v, want count %d min 1 max 4", s, workers*perWorker)
	}
}

// TestSnapshotDeterminism applies the same observation multiset to two
// registries — one sequentially, one from racing goroutines — and requires
// bit-identical rendered output. This is the property that makes golden
// tests and diffable /metrics scrapes possible: bucket counts, sums over
// the same values, and min/max are all order-independent.
func TestSnapshotDeterminism(t *testing.T) {
	values := make([]float64, 400)
	for i := range values {
		values[i] = float64(i%7) + 0.25
	}

	sequential := obs.NewRegistry()
	for _, v := range values {
		sequential.Counter("c").Inc()
		sequential.Histogram("h").Observe(v)
	}

	racing := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(values); i += 4 {
				racing.Counter("c").Inc()
				racing.Histogram("h").Observe(values[i])
			}
		}(w)
	}
	wg.Wait()

	var a, b bytes.Buffer
	if err := obs.WritePrometheus(&a, sequential.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&b, racing.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshots differ:\nsequential:\n%s\nracing:\n%s", a.String(), b.String())
	}
}

func TestNilObserverAccessors(t *testing.T) {
	var ob *obs.Observer
	if ob.Registry() != nil || ob.Tracer() != nil {
		t.Fatal("nil observer handed out non-nil sinks")
	}
	ob = &obs.Observer{}
	if ob.Registry() != nil || ob.Tracer() != nil {
		t.Fatal("empty observer handed out non-nil sinks")
	}
}

// TestAllocBudgetNilFastPath is the proof that instrumentation with no sink
// attached is free: every handle from a nil registry is nil, and calling
// the full metric surface plus a nil tracer allocates nothing.
func TestAllocBudgetNilFastPath(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	var reg *obs.Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	tm := reg.Timer("t")
	var tr *obs.Tracer
	ev := obs.Event{Type: obs.EvReport, Step: 1, Clique: -1, Node: -1}

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		h.Observe(3)
		tm.Observe(time.Millisecond)
		tm.Start()()
		tr.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("nil fast path: %v allocs/op, budget 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles accumulated state")
	}
}

func BenchmarkNilFastPath(b *testing.B) {
	var reg *obs.Registry
	c := reg.Counter("c")
	h := reg.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(float64(i))
	}
}

func BenchmarkLiveCounter(b *testing.B) {
	c := obs.NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkLiveHistogram(b *testing.B) {
	h := obs.NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

// TestTimerStartRecordsElapsed covers the Start/stop pair engine cells
// time themselves with: one observation lands, and it measures at least
// the slept interval.
func TestTimerStartRecordsElapsed(t *testing.T) {
	reg := obs.NewRegistry()
	tm := reg.Timer("t")
	stop := tm.Start()
	time.Sleep(2 * time.Millisecond)
	stop()
	s := tm.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if s.Sum < 0.002 {
		t.Fatalf("sum = %v s, want >= 2ms", s.Sum)
	}
	var nilTimer *obs.Timer
	nilTimer.Start()() // must not panic and must not record anywhere
}
