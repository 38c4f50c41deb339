package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ken/internal/alloctest"
)

func TestRoundTrip(t *testing.T) {
	f := Frame{
		Step:   12345,
		Attrs:  []int{3, 0, 17},
		Values: []float64{21.53, -4.08, 19.999},
	}
	const res = 0.005
	buf, err := Encode(f, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, res)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != f.Step || got.Special != KindReport {
		t.Fatalf("header mismatch: %+v", got)
	}
	// Attrs come back sorted ascending.
	wantAttrs := []int{0, 3, 17}
	wantVals := []float64{-4.08, 21.53, 19.999}
	for i := range wantAttrs {
		if got.Attrs[i] != wantAttrs[i] {
			t.Fatalf("attrs = %v, want %v", got.Attrs, wantAttrs)
		}
		if math.Abs(got.Values[i]-wantVals[i]) > res/2+1e-12 {
			t.Fatalf("value %d = %v, want %v within %v", i, got.Values[i], wantVals[i], res/2)
		}
	}
}

func TestEmptyFrame(t *testing.T) {
	buf, err := Encode(Frame{Step: 7}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || len(got.Attrs) != 0 || len(got.Values) != 0 {
		t.Fatalf("empty frame round trip: %+v", got)
	}
}

func TestHeartbeatKind(t *testing.T) {
	buf, err := Encode(Frame{Step: 1, Special: KindHeartbeat, Attrs: []int{0}, Values: []float64{1}}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got.Special != KindHeartbeat {
		t.Fatalf("kind = %d", got.Special)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(Frame{Attrs: []int{0}, Values: nil}, 0.01); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := Encode(Frame{}, 0); err == nil {
		t.Fatal("expected error for zero resolution")
	}
	if _, err := Encode(Frame{Attrs: []int{-1}, Values: []float64{1}}, 0.01); err == nil {
		t.Fatal("expected error for negative attribute")
	}
	if _, err := Encode(Frame{Attrs: []int{0}, Values: []float64{math.NaN()}}, 0.01); err == nil {
		t.Fatal("expected error for NaN value")
	}
	if _, err := Encode(Frame{Attrs: []int{1, 1}, Values: []float64{1, 2}}, 0.01); err == nil {
		t.Fatal("expected error for duplicate attribute")
	}
}

func TestDecodeCorruption(t *testing.T) {
	good, err := Encode(Frame{Step: 9, Attrs: []int{1, 4}, Values: []float64{2, 3}}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad kind":    append([]byte{Magic, 0x7}, good[2:]...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte{}, good...), 0xFF),
		"only header": good[:2],
	}
	for name, buf := range cases {
		if _, err := Decode(buf, 0.01); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	if _, err := Decode(good, 0); err == nil {
		t.Fatal("expected error for zero resolution at decode")
	}
}

func TestCompactness(t *testing.T) {
	// Clustered small attrs and modest values: the frame should be far
	// smaller than a naive 12-bytes-per-pair encoding.
	attrs := make([]int, 20)
	vals := make([]float64, 20)
	for i := range attrs {
		attrs[i] = i + 5
		vals[i] = 20 + float64(i)/10
	}
	buf, err := Encode(Frame{Step: 1000, Attrs: attrs, Values: vals}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 20*6 {
		t.Fatalf("frame is %d bytes for 20 pairs — encoding not compact", len(buf))
	}
}

// Property: round trip preserves step, kind, sorted attrs, and values to
// within half a quantum.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30)
		perm := r.Perm(200)
		attrs := perm[:n]
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = (r.Float64() - 0.5) * 200
		}
		res := []float64{0.001, 0.01, 0.5}[r.Intn(3)]
		frame := Frame{Step: uint64(r.Intn(1 << 30)), Attrs: attrs, Values: vals}
		buf, err := Encode(frame, res)
		if err != nil {
			return false
		}
		got, err := Decode(buf, res)
		if err != nil {
			return false
		}
		if got.Step != frame.Step || len(got.Attrs) != n {
			return false
		}
		// Build expected map.
		want := map[int]float64{}
		for i, a := range attrs {
			want[a] = vals[i]
		}
		prev := -1
		for i, a := range got.Attrs {
			if a <= prev {
				return false // not strictly ascending
			}
			prev = a
			if math.Abs(got.Values[i]-want[a]) > res/2+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// hostileCount is a 7-byte frame whose count field claims 1<<20 pairs: the
// cheapest request for a 16 MiB allocation a peer can send.
var hostileCount = []byte{Magic, byte(KindReport), 0x00, 0x80, 0x80, 0x40, 0x01}

// TestDecodeIntoHostileCount: a count the body cannot hold is corrupt, and
// turning it away does not grow the caller's arrays (TestAllocBudgetDecodeInto
// holds it to zero allocations).
func TestDecodeIntoHostileCount(t *testing.T) {
	f := Frame{Attrs: make([]int, 0, 4), Values: make([]float64, 0, 4)}
	if err := DecodeInto(&f, hostileCount, 0.01); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if cap(f.Attrs) != 4 || cap(f.Values) != 4 {
		t.Fatalf("caps moved to %d/%d, want 4/4", cap(f.Attrs), cap(f.Values))
	}
	// The largest count a body can hold is half its remaining bytes: one
	// under decodes, one over is turned away.
	fits := []byte{Magic, 0, 0, 2, 1, 1, 2, 4}
	if err := DecodeInto(&f, fits, 0.01); err != nil || len(f.Attrs) != 2 {
		t.Fatalf("two pairs in four bytes: %v, %+v", err, f)
	}
	over := []byte{Magic, 0, 0, 3, 1, 1, 2, 4}
	if err := DecodeInto(&f, over, 0.01); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("three pairs in four bytes: got %v, want ErrCorrupt", err)
	}
}

// referenceEncode is Encode as it stood before AppendEncode: copy the pairs,
// sort them, emit. AppendEncode must produce these bytes whatever order the
// attributes arrive in.
func referenceEncode(f Frame, resolution float64) []byte {
	type pair struct {
		attr int
		val  float64
	}
	pairs := make([]pair, len(f.Attrs))
	for i := range f.Attrs {
		pairs[i] = pair{f.Attrs[i], f.Values[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].attr < pairs[b].attr })
	buf := []byte{Magic, byte(f.Special)}
	buf = binary.AppendUvarint(buf, f.Step)
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	prev := 0
	for _, p := range pairs {
		buf = binary.AppendUvarint(buf, uint64(p.attr-prev))
		prev = p.attr
	}
	for _, p := range pairs {
		buf = binary.AppendVarint(buf, int64(math.Round(p.val/resolution)))
	}
	return buf
}

// TestAppendEncodeMatchesEncode: ascending attrs (the no-copy path),
// shuffled attrs (the sorting fallback) and Encode all emit the reference
// bytes, and AppendEncode leaves what dst already held alone.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	prefix := []byte("hdr!")
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(40)
		attrs := r.Perm(300)[:n]
		sort.Ints(attrs)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = (r.Float64() - 0.5) * 400
		}
		res := []float64{0.001, 0.01, 0.5}[r.Intn(3)]
		asc := Frame{Step: uint64(r.Int63()), Special: Kind(r.Intn(2)), Attrs: attrs, Values: vals}
		want := referenceEncode(asc, res)

		shuffled := Frame{Step: asc.Step, Special: asc.Special,
			Attrs: append([]int(nil), attrs...), Values: append([]float64(nil), vals...)}
		r.Shuffle(n, func(i, j int) {
			shuffled.Attrs[i], shuffled.Attrs[j] = shuffled.Attrs[j], shuffled.Attrs[i]
			shuffled.Values[i], shuffled.Values[j] = shuffled.Values[j], shuffled.Values[i]
		})
		for name, f := range map[string]Frame{"ascending": asc, "shuffled": shuffled} {
			got, err := Encode(f, res)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("trial %d, %s: Encode = %x (%v), want %x", trial, name, got, err, want)
			}
			got, err = AppendEncode(prefix[:len(prefix):len(prefix)], f, res)
			if err != nil || !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
				t.Fatalf("trial %d, %s: AppendEncode = %x (%v), want %x after %q", trial, name, got, err, want, prefix)
			}
		}
	}
	// A refused frame hands dst back as it was.
	got, err := AppendEncode(prefix, Frame{Attrs: []int{2, 2}, Values: []float64{1, 1}}, 0.01)
	if err == nil || !bytes.Equal(got, prefix) {
		t.Fatalf("duplicate attribute: got %x, %v; want the untouched prefix and an error", got, err)
	}
}

// TestAllocBudgetAppendEncode pins the sender's steady state: an ascending
// frame encodes into a warmed buffer without allocating (docs/INVARIANTS.md).
func TestAllocBudgetAppendEncode(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	f := Frame{Step: 1 << 20, Attrs: []int{0, 3, 4, 17, 40}, Values: []float64{21.5, -4, 19.99, 0, 7}}
	buf, err := AppendEncode(nil, f, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if buf, err = AppendEncode(buf[:0], f, 0.01); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ascending AppendEncode into a warmed buffer: %v allocs/op, budget 0", got)
	}
}

// TestAllocBudgetDecodeInto pins the receiver's steady state: a frame that
// fits the target's arrays decodes without allocating, a larger one sizes
// both arrays once (the two allocations it is allowed), and a count the
// body cannot hold is turned away before anything is allocated.
func TestAllocBudgetDecodeInto(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("alloc budgets are not meaningful under -race")
	}
	body, err := Encode(Frame{Step: 7, Attrs: []int{0, 3, 4, 17, 40}, Values: []float64{21.5, -4, 19.99, 0, 7}}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for _, tc := range []struct {
		name   string
		budget float64
		decode func() error
	}{
		{"into a warmed frame", 0, func() error { return DecodeInto(&f, body, 0.01) }},
		{"into an empty frame", 2, func() error { f = Frame{}; return DecodeInto(&f, body, 0.01) }},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if err := tc.decode(); err != nil || len(f.Attrs) != 5 {
				t.Fatalf("%s: %v, %+v", tc.name, err, f)
			}
		}); got != tc.budget {
			t.Errorf("DecodeInto %s: %v allocs/op, budget %v", tc.name, got, tc.budget)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(&f, hostileCount, 0.01); err == nil {
			t.Fatal("hostile count decoded")
		}
	}); got != 0 {
		t.Errorf("rejecting a hostile count: %v allocs/op, budget 0", got)
	}
}
