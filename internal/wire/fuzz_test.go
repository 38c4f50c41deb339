package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the frame parser: arbitrary bytes must never panic,
// and every frame the fuzzer round-trips through Encode must decode back.
func FuzzDecode(f *testing.F) {
	// Seed with valid frames of varying shapes.
	seeds := []Frame{
		{},
		{Step: 1, Attrs: []int{0}, Values: []float64{1}},
		{Step: 1 << 40, Attrs: []int{0, 5, 1000}, Values: []float64{-3.5, 0, 99.25}},
		{Step: 3, Special: KindHeartbeat, Attrs: []int{2}, Values: []float64{7}},
	}
	for _, s := range seeds {
		buf, err := Encode(s, 0.01)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(hostileCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Decode(data, 0.01)
		if err != nil {
			return // rejecting garbage is correct
		}
		// Anything that decodes must re-encode and decode identically.
		out, err := Encode(frame, 0.01)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		again, err := Decode(out, 0.01)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if again.Step != frame.Step || len(again.Attrs) != len(frame.Attrs) {
			t.Fatalf("unstable round trip: %+v vs %+v", frame, again)
		}
	})
}

// FuzzDecodeSession hardens the session-frame parser the same way:
// arbitrary bytes must never panic, and every frame that decodes must
// survive a re-encode/decode round trip unchanged.
func FuzzDecodeSession(f *testing.F) {
	for _, h := range []Hello{
		{Version: SessionVersion},
		{Version: SessionVersion, Tenant: "garden-a", Spec: []byte{1, 6, 'g', 'a', 'r', 'd', 'e', 'n', 2}},
		{Version: 1 << 40, Tenant: "x"},
	} {
		buf, err := EncodeHello(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, a := range []Accept{{Version: SessionVersion}, {Version: 1, Tenant: "t42"}} {
		buf, err := EncodeAccept(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, r := range []Reject{
		{Version: 1, Code: RejectVersion, Reason: "local v1, remote v2"},
		{Version: 1, Code: RejectSlowTenant, Reason: "shed at step 17"},
	} {
		buf, err := EncodeReject(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{SessionMagic})
	f.Add([]byte{Magic, 0x00}) // stale pre-session peer
	f.Add([]byte{SessionMagic, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSession(data)
		if err != nil {
			return // rejecting garbage (and stale peers) is correct
		}
		var out []byte
		switch s.Kind() {
		case KindHello:
			out, err = EncodeHello(*s.Hello)
		case KindAccept:
			out, err = EncodeAccept(*s.Accept)
		case KindReject:
			out, err = EncodeReject(*s.Reject)
		}
		if err != nil {
			t.Fatalf("decoded session does not re-encode: %v", err)
		}
		again, err := DecodeSession(out)
		if err != nil {
			t.Fatalf("re-encoded session does not decode: %v", err)
		}
		if again.Kind() != s.Kind() {
			t.Fatalf("unstable round trip: kind %d vs %d", s.Kind(), again.Kind())
		}
		switch s.Kind() {
		case KindHello:
			if again.Hello.Version != s.Hello.Version || again.Hello.Tenant != s.Hello.Tenant ||
				!bytes.Equal(again.Hello.Spec, s.Hello.Spec) {
				t.Fatalf("unstable hello: %+v vs %+v", *s.Hello, *again.Hello)
			}
		case KindAccept:
			if *again.Accept != *s.Accept {
				t.Fatalf("unstable accept: %+v vs %+v", *s.Accept, *again.Accept)
			}
		case KindReject:
			if *again.Reject != *s.Reject {
				t.Fatalf("unstable reject: %+v vs %+v", *s.Reject, *again.Reject)
			}
		}
	})
}

// TestGoldenBytes pins the wire format: changing the encoding silently
// would break deployed source/sink pairs, so the exact bytes of a
// reference frame are asserted.
func TestGoldenBytes(t *testing.T) {
	f := Frame{
		Step:   300,
		Attrs:  []int{2, 7},
		Values: []float64{1.0, -2.5},
	}
	got, err := Encode(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0xC3,       // magic
		0x00,       // kind = report
		0xAC, 0x02, // step 300 uvarint
		0x02,       // count 2
		0x02, 0x05, // attr deltas 2, 5
		0x04, // value 1.0/0.5 = 2 zigzag → 4
		0x09, // value −2.5/0.5 = −5 zigzag → 9
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire format changed:\n got  %#v\n want %#v", got, want)
	}
}
