package deploy

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"testing"
)

// TestSpecGoldenBytes pins the v1 serialized-spec encoding across schema
// versions: a sink must keep decoding specs from already-deployed sources.
func TestSpecGoldenBytes(t *testing.T) {
	p := Params{
		Dataset: "garden", Seed: 1, TrainSteps: 100, TestSteps: 500,
		K: 2, Epsilon: 0.5, HeartbeatEvery: 24,
	}
	got := p.EncodeSpec()
	want := []byte{
		0x01,                         // spec version 1
		0x06,                         // dataset length
		'g', 'a', 'r', 'd', 'e', 'n', // dataset
		0x02,       // seed 1 (zigzag varint)
		0x64,       // train 100
		0xF4, 0x03, // test 500
		0x02,                                           // k
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, // ε = 0.5 (LE float64 bits)
		0x18, // heartbeat 24
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("spec v1 format changed:\n got  %#v\n want %#v", got, want)
	}
	back, err := DecodeSpec(want)
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("golden bytes decode to %+v, want %+v", back, p)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	cases := []Params{
		{}, // all defaults
		{Dataset: "lab", Seed: -7, TrainSteps: 50, TestSteps: 120, K: 3, Epsilon: 0.25},
		{Dataset: "garden", Seed: 1 << 40, TrainSteps: 100, TestSteps: 1, K: 2, HeartbeatEvery: 1},
	}
	for _, p := range cases {
		back, err := DecodeSpec(p.EncodeSpec())
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		// Encoding normalizes, so the round trip lands on the defaulted form.
		if back != p.withDefaults() {
			t.Fatalf("round trip: %+v vs %+v", back, p.withDefaults())
		}
	}
}

func TestDecodeSpecUnknownVersion(t *testing.T) {
	buf := Params{}.EncodeSpec()
	buf[0] = 0x02 // future schema version
	_, err := DecodeSpec(buf)
	if !errors.Is(err, ErrSpecVersion) {
		t.Fatalf("future version decoded: %v", err)
	}
}

func TestDecodeSpecCorrupt(t *testing.T) {
	valid := Params{}.EncodeSpec()
	cases := map[string][]byte{
		"empty":        {},
		"dataset huge": {0x01, 0xFF, 0x01},
		"truncated":    valid[:len(valid)-3],
		"trailing":     append(append([]byte{}, valid...), 0x00),
	}
	for name, buf := range cases {
		if _, err := DecodeSpec(buf); err == nil {
			t.Errorf("%s: decoded garbage %#v", name, buf)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Params{
		{}, // defaults
		{Dataset: "lab", Epsilon: 0.1},
		{TestSteps: maxSpecSteps},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	bad := []Params{
		{Dataset: "office"},
		{TestSteps: maxSpecSteps + 1},
		{TrainSteps: maxSpecSteps + 1},
		{K: 65},
		{Epsilon: -1},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{HeartbeatEvery: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

// TestRegister: the one shared flag block drives kensource, kenswarm and
// kensinkd -pin; parsing it must populate exactly the replica-relevant fields.
func TestRegister(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var p Params
	p.Register(fs)
	if err := fs.Parse([]string{"-dataset", "lab", "-seed", "9", "-train", "80", "-k", "3", "-eps", "0.75"}); err != nil {
		t.Fatal(err)
	}
	want := Params{Dataset: "lab", Seed: 9, TrainSteps: 80, K: 3, Epsilon: 0.75}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}

	// Defaults must match the historical per-binary flag values.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	var d Params
	d.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if d != (Params{Dataset: "garden", Seed: 1, TrainSteps: 100, K: 2}) {
		t.Fatalf("flag defaults drifted: %+v", d)
	}
}

// TestReplicaKey: TestSteps and HeartbeatEvery shape the source's run,
// not the replica, so they must not split the build cache or a pin.
func TestReplicaKey(t *testing.T) {
	a := Params{Dataset: "garden", Seed: 1, TestSteps: 10, HeartbeatEvery: 5}
	b := Params{Dataset: "garden", Seed: 1, TestSteps: 9999, HeartbeatEvery: 0}
	if a.ReplicaKey() != b.ReplicaKey() {
		t.Fatalf("source-local fields leak into the key: %q vs %q", a.ReplicaKey(), b.ReplicaKey())
	}
	c := Params{Dataset: "garden", Seed: 2}
	if a.ReplicaKey() == c.ReplicaKey() {
		t.Fatalf("different seeds share a key: %q", a.ReplicaKey())
	}
	// The key is default-normalized: zero Params equals explicit defaults.
	if (Params{}).ReplicaKey() != (Params{Dataset: "garden", Seed: 1, TrainSteps: 100, K: 2}).ReplicaKey() {
		t.Fatal("key is not default-normalized")
	}
}

// TestSpecNegativeZeroEpsilon: ε = −0 is no override, exactly as +0 is, so
// both build the same deployment and must encode to the same bytes and key —
// or a pinned sink would refuse `-eps -0` and the build cache would build
// the one deployment twice.
func TestSpecNegativeZeroEpsilon(t *testing.T) {
	pos, neg := Params{Epsilon: 0}, Params{Epsilon: math.Copysign(0, -1)}
	if err := neg.Validate(); err != nil {
		t.Fatal(err)
	}
	if a, b := pos.EncodeSpec(), neg.EncodeSpec(); !bytes.Equal(a, b) {
		t.Fatalf("+0 encodes %#v, −0 %#v", a, b)
	}
	if a, b := pos.ReplicaKey(), neg.ReplicaKey(); a != b {
		t.Fatalf("+0 keys %q, −0 %q", a, b)
	}
	back, err := DecodeSpec(neg.EncodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Signbit(back.Epsilon) {
		t.Fatal("−0 survived the round trip")
	}
}

// FuzzDecodeSpec feeds the HELLO spec decoder arbitrary bytes, as a hostile
// source may: it never panics, and whatever it accepts re-encodes to bytes
// that decode again, encode to themselves and name the same replica; a zero
// ε encodes alike whatever its sign.
func FuzzDecodeSpec(f *testing.F) {
	f.Add(Params{
		Dataset: "garden", Seed: 1, TrainSteps: 100, TestSteps: 500,
		K: 2, Epsilon: 0.5, HeartbeatEvery: 24,
	}.EncodeSpec())
	f.Add(Params{Dataset: "lab", Seed: -7, K: 8, Epsilon: math.Copysign(0, -1)}.EncodeSpec())
	f.Add(Params{}.EncodeSpec())
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := DecodeSpec(buf)
		if err != nil {
			return
		}
		enc := p.EncodeSpec()
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%+v encodes to %#v, which does not decode: %v", p, enc, err)
		}
		if again := back.EncodeSpec(); !bytes.Equal(again, enc) {
			t.Fatalf("%+v encodes to %#v, its round trip to %#v", p, enc, again)
		}
		if a, b := p.ReplicaKey(), back.ReplicaKey(); a != b {
			t.Fatalf("%+v keys %q, its round trip %q", p, a, b)
		}
		if flip := p; p.Epsilon == 0 {
			flip.Epsilon = -p.Epsilon
			if !bytes.Equal(flip.EncodeSpec(), enc) {
				t.Fatalf("ε %v and %v encode differently", p.Epsilon, flip.Epsilon)
			}
		}
	})
}
