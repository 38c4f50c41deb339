package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ken/internal/leaktest"
	"ken/internal/obs"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		e := New(Options{Workers: workers})
		items := make([]int, 100)
		for i := range items {
			items[i] = i
		}
		out, err := Map(context.Background(), e, items, func(_ context.Context, idx, item int) (string, error) {
			return fmt.Sprintf("%d*%d", idx, item), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range out {
			if want := fmt.Sprintf("%d*%d", i, i); got != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got, want)
			}
		}
	}
}

func TestMapNilEngineRunsInline(t *testing.T) {
	out, err := Map(context.Background(), nil, []int{1, 2, 3}, func(_ context.Context, _, item int) (int, error) {
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 4 || out[2] != 6 {
		t.Fatalf("out = %v", out)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	e := New(Options{Workers: 4})
	boom := errors.New("boom")
	_, err := Map(context.Background(), e, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 3 {
			return 0, boom
		}
		return idx, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cell error (not a cancellation knock-on)", err)
	}
}

func TestMapCancellation(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		defer close(done)
		out, err = Map(ctx, e, make([]int, 64), func(cctx context.Context, idx, _ int) (int, error) {
			started.Add(1)
			select {
			case <-release:
			case <-cctx.Done():
				return 0, cctx.Err()
			}
			return idx, nil
		})
	}()
	// Let the first cells occupy the pool, then cancel: the remaining
	// items must not start.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 64 {
		t.Fatalf("all %d cells started despite cancellation", n)
	}
	if len(out) != 64 {
		t.Fatalf("result slice has %d slots, want 64", len(out))
	}
}

func TestMapNestedRunsInline(t *testing.T) {
	e := New(Options{Workers: 4})
	out, err := Map(context.Background(), e, []int{10, 20}, func(ctx context.Context, _, item int) (int, error) {
		// A nested Map must not compete for pool slots; it runs inline.
		inner, err := Map(ctx, e, []int{1, 2, 3}, func(_ context.Context, _, v int) (int, error) {
			return v * item, nil
		})
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 60 || out[1] != 120 {
		t.Fatalf("out = %v, want [60 120]", out)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(nil)
	var builds atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := Get(c, "shared", func() (int, error) {
				builds.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want exactly once", n)
	}
	for g, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d", g, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.Len())
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache(nil)
	var builds atomic.Int64
	boom := errors.New("deterministic failure")
	for i := 0; i < 3; i++ {
		_, err := Get(c, "bad", func() (int, error) {
			builds.Add(1)
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failed build retried %d times, want cached after 1", n)
	}
}

func TestCacheTypeMismatch(t *testing.T) {
	c := NewCache(nil)
	if _, err := Get(c, "k", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := Get(c, "k", func() (string, error) { return "x", nil }); err == nil {
		t.Fatal("expected a type-mismatch error for reused key")
	}
}

func TestCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(&obs.Observer{Reg: reg})
	for i := 0; i < 5; i++ {
		if _, err := Get(c, "k", func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["engine_cache_misses_total"] != 1 {
		t.Fatalf("misses = %d, want 1", snap.Counters["engine_cache_misses_total"])
	}
	if snap.Counters["engine_cache_hits_total"] != 4 {
		t.Fatalf("hits = %d, want 4", snap.Counters["engine_cache_hits_total"])
	}
}

func TestCellSeedDeterministic(t *testing.T) {
	a := CellSeed(1, "fig9", "garden", "DjC3")
	b := CellSeed(1, "fig9", "garden", "DjC3")
	if a != b {
		t.Fatalf("same labels gave %d and %d", a, b)
	}
	if CellSeed(1, "fig9", "garden", "DjC3") == CellSeed(1, "fig9", "garden", "DjC4") {
		t.Fatal("distinct labels collided")
	}
	if CellSeed(1, "a", "b") == CellSeed(1, "ab") {
		t.Fatal("label boundary not separated: {a,b} collided with {ab}")
	}
	if CellSeed(1, "x") == CellSeed(2, "x") {
		t.Fatal("base seed ignored")
	}
}

func TestKeyMatrixDistinguishes(t *testing.T) {
	a := KeyMatrix([][]float64{{1, 2}, {3, 4}})
	if a != KeyMatrix([][]float64{{1, 2}, {3, 4}}) {
		t.Fatal("same matrix, different keys")
	}
	if a == KeyMatrix([][]float64{{1, 2}, {3, 5}}) {
		t.Fatal("different values, same key")
	}
	if a == KeyMatrix([][]float64{{1, 2, 3, 4}}) {
		t.Fatal("different shape, same key")
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Options{Workers: 2, Obs: &obs.Observer{Reg: reg}})
	_, err := Map(context.Background(), e, []int{1, 2, 3}, func(_ context.Context, idx, _ int) (int, error) {
		if idx == 2 {
			return 0, errors.New("fail")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	snap := reg.Snapshot()
	if snap.Counters["engine_cells_total"] < 1 {
		t.Fatal("no cells counted")
	}
	if snap.Counters["engine_cell_errors_total"] != 1 {
		t.Fatalf("cell errors = %d, want 1", snap.Counters["engine_cell_errors_total"])
	}
	if snap.Histograms["engine_cell_seconds"].Count < 1 {
		t.Fatal("no cell timings observed")
	}
}

func TestWorkersDefault(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Options{Workers: 8}).Workers(); w != 8 {
		t.Fatalf("workers = %d, want 8", w)
	}
}

// TestCellSeedGolden pins the exact seeds CellSeed derives for a table of
// realistic (base, labels) inputs. Every experiment's randomness flows
// from these values, so a refactor of the derivation (hash choice, label
// separator, mixing) that reshuffles them would silently invalidate every
// recorded figure; this table makes that a loud test failure instead. If
// the derivation is changed on purpose, regenerate the constants and say
// so in the commit.
func TestCellSeedGolden(t *testing.T) {
	cases := []struct {
		base   int64
		labels []string
		want   int64
	}{
		{1, nil, -3750763034362895580},
		{1, []string{"fig9"}, 4448017665298023149},
		{1, []string{"fig9", "garden"}, 4297119662474363278},
		{1, []string{"fig9", "garden", "DjC3"}, -6129311539209244868},
		{1, []string{"fig9", "garden", "DjC4"}, -6132181264558307901},
		{2, []string{"fig9", "garden", "DjC3"}, -6129311539209244865},
		{1, []string{"a", "b"}, -6106644141146341257},
		{1, []string{"ab"}, -1792429245696181217},
		{1, []string{"ab", ""}, -188762490092427525},
		{-7, []string{"sweep", "eps=0.25"}, 8800710353843282620},
		{42, []string{"fig11", "lab", "greedy", "k=4"}, -7986850645219838730},
	}
	for _, c := range cases {
		if got := CellSeed(c.base, c.labels...); got != c.want {
			t.Errorf("CellSeed(%d, %q) = %d, want %d", c.base, c.labels, got, c.want)
		}
	}
}

// TestCellSeedStableAndCollisionFree sweeps a realistic experiment grid:
// every (base, labels) cell must derive the same seed on a second pass
// (stability) and no two distinct label sets may share one (the grid is
// tiny against a 64-bit space, so any collision means a separator bug,
// not bad luck).
func TestCellSeedStableAndCollisionFree(t *testing.T) {
	seen := map[int64]string{}
	for _, fig := range []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "sweep", "ext"} {
		for _, ds := range []string{"garden", "lab"} {
			for _, scheme := range []string{"TinyDB", "ApC", "Avg", "DjC1", "DjC2", "DjC3", "DjC4", "DjC5"} {
				for k := 0; k < 4; k++ {
					labels := []string{fig, ds, scheme, "k=" + string(rune('0'+k))}
					id := fig + "/" + ds + "/" + scheme + "/" + labels[3]
					seed := CellSeed(1, labels...)
					if again := CellSeed(1, labels...); again != seed {
						t.Fatalf("unstable seed for %s: %d then %d", id, seed, again)
					}
					if prev, ok := seen[seed]; ok {
						t.Fatalf("seed collision: %s and %s both derive %d", prev, id, seed)
					}
					seen[seed] = id
				}
			}
		}
	}
	if len(seen) != 8*2*8*4 {
		t.Fatalf("grid covered %d cells, want %d", len(seen), 8*2*8*4)
	}
}

// TestScopeNesting checks the trace-scope context plumbing: WithScope
// nests with "/", Scope is nil-safe, and empty labels are no-ops.
func TestScopeNesting(t *testing.T) {
	if got := Scope(nil); got != "" {
		t.Fatalf("Scope(nil) = %q, want empty", got)
	}
	ctx := context.Background()
	if got := Scope(ctx); got != "" {
		t.Fatalf("Scope(background) = %q, want empty", got)
	}
	ctx = WithScope(ctx, "bench")
	ctx = WithScope(ctx, "") // no-op
	ctx = WithScope(ctx, "sweep")
	if got := Scope(ctx); got != "bench/sweep" {
		t.Fatalf("Scope = %q, want bench/sweep", got)
	}
}

// TestMapScopesCellsByIndex checks that every cell — inline or parallel —
// sees its item index appended to the context scope, identically across
// worker counts, so parallel traces label events exactly like sequential
// ones.
func TestMapScopesCellsByIndex(t *testing.T) {
	base := WithScope(context.Background(), "exp")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	collect := func(workers int) []string {
		e := New(Options{Workers: workers})
		out, err := Map(base, e, items, func(ctx context.Context, idx, _ int) (string, error) {
			return Scope(ctx), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := collect(1)
	par := collect(8)
	for i := range items {
		want := fmt.Sprintf("exp/%d", i)
		if seq[i] != want || par[i] != want {
			t.Fatalf("cell %d scopes: sequential %q parallel %q, want %q", i, seq[i], par[i], want)
		}
	}
}
