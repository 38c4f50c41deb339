// Package wire defines the compact binary frame format Ken reports travel
// in between a source process and the base-station sink (see
// internal/stream for the transport). One frame carries one time step's
// report set.
//
// Layout (all integers varint-encoded, little-endian groups):
//
//	magic      byte 0xK3 (0xC3)
//	step       uvarint — the sampling step the reports belong to
//	count      uvarint — number of (attr, value) pairs
//	attrs      delta-encoded uvarints (attr indices ascending)
//	values     varint quantized readings (value / resolution, zigzag)
//
// Values are quantized to a caller-chosen resolution. Ken's guarantee
// composes cleanly: quantizing to resolution r adds at most r/2 error, so a
// deployment that needs ±ε end-to-end runs the protocol at ε − r/2. With
// the default resolution of ε/100 the slack is negligible.
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Magic is the frame marker byte.
const Magic = 0xC3

// Frame is one step's report set.
type Frame struct {
	Step    uint64
	Attrs   []int
	Values  []float64
	Special Kind
}

// Kind distinguishes regular reports from control frames.
type Kind byte

const (
	// KindReport is a normal report set (possibly empty).
	KindReport Kind = 0
	// KindHeartbeat marks a full-state resynchronisation frame (§6).
	KindHeartbeat Kind = 1
)

// ErrCorrupt is returned (wrapped) when a frame fails to parse.
var ErrCorrupt = errors.New("wire: corrupt frame")

// errCountOverrun is built once so that turning away a frame whose count
// outruns its body — the cheapest way to ask a decoder for a large
// allocation — allocates nothing at all.
var errCountOverrun = fmt.Errorf("%w: count exceeds what the body can hold", ErrCorrupt)

// Encode serialises the frame with the given value resolution. Attributes
// are sorted ascending; attrs and values must have equal length.
func Encode(f Frame, resolution float64) ([]byte, error) {
	return AppendEncode(nil, f, resolution)
}

// AppendEncode is Encode appending to dst, so a sender reuses one buffer
// across frames (a warmed buffer encodes without allocating). Attrs already
// strictly ascending — what Source.Collect's single-clique frames and every
// decoded frame are — encode straight from the frame; any other order takes
// the sorting fallback. The bytes are the same either way. On error dst
// comes back unextended.
func AppendEncode(dst []byte, f Frame, resolution float64) ([]byte, error) {
	if len(f.Attrs) != len(f.Values) {
		return dst, fmt.Errorf("wire: %d attrs, %d values", len(f.Attrs), len(f.Values))
	}
	if resolution <= 0 {
		return dst, fmt.Errorf("wire: non-positive resolution %v", resolution)
	}
	ascending := true
	for i, a := range f.Attrs {
		if a < 0 {
			return dst, fmt.Errorf("wire: negative attribute %d", a)
		}
		if math.IsNaN(f.Values[i]) || math.IsInf(f.Values[i], 0) {
			return dst, fmt.Errorf("wire: non-finite value %v", f.Values[i])
		}
		if i > 0 && a <= f.Attrs[i-1] {
			ascending = false
		}
	}
	// order[i] is the position of the i-th smallest attribute; nil means the
	// frame is already in wire order.
	var order []int
	if !ascending {
		order = make([]int, len(f.Attrs))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(f.Attrs[a], f.Attrs[b]) })
		for i := 1; i < len(order); i++ {
			if a := f.Attrs[order[i]]; a == f.Attrs[order[i-1]] {
				return dst, fmt.Errorf("wire: duplicate attribute %d", a)
			}
		}
	}
	at := func(i int) int {
		if order != nil {
			return order[i]
		}
		return i
	}

	dst = slices.Grow(dst, 4+3*len(f.Attrs)) // the usual size; longer frames grow by append
	dst = append(dst, Magic, byte(f.Special))
	dst = binary.AppendUvarint(dst, f.Step)
	dst = binary.AppendUvarint(dst, uint64(len(f.Attrs)))
	prev := 0
	for i := range f.Attrs {
		a := f.Attrs[at(i)]
		dst = binary.AppendUvarint(dst, uint64(a-prev))
		prev = a
	}
	for i := range f.Values {
		dst = binary.AppendVarint(dst, int64(math.Round(f.Values[at(i)]/resolution)))
	}
	return dst, nil
}

// Decode parses a frame encoded with the same resolution.
func Decode(buf []byte, resolution float64) (Frame, error) {
	var f Frame
	if err := DecodeInto(&f, buf, resolution); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// DecodeInto parses a frame encoded with the same resolution into f,
// reusing f's Attrs and Values backing arrays when their capacity suffices
// (they come back length-0 rather than nil for empty frames). A frame
// whose pairs fit the existing capacity decodes without allocating; a
// larger one sizes both arrays once, from its count — after the count has
// been held against the body: every pair takes at least two bytes, so a
// count the remaining bytes cannot hold is corrupt and allocates nothing.
// On any other error f is left in an unspecified state.
func DecodeInto(f *Frame, buf []byte, resolution float64) error {
	if resolution <= 0 {
		return fmt.Errorf("wire: non-positive resolution %v", resolution)
	}
	if len(buf) < 2 || buf[0] != Magic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	kind := Kind(buf[1])
	if kind != KindReport && kind != KindHeartbeat {
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	rest := buf[2:]
	step, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: step", ErrCorrupt)
	}
	rest = rest[n:]
	count64, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: count", ErrCorrupt)
	}
	rest = rest[n:]
	if count64 > uint64(len(rest))/2 {
		return errCountOverrun
	}
	count := int(count64)
	f.Step = step
	f.Special = kind
	if cap(f.Attrs) < count || cap(f.Values) < count {
		f.Attrs, f.Values = make([]int, count), make([]float64, count)
	}
	attrs, values := f.Attrs[:count], f.Values[:count]
	prev := 0
	for i := range attrs {
		d, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: attr %d", ErrCorrupt, i)
		}
		// Attributes are strictly ascending: every delta after the first
		// must be at least 1 (a zero delta would be a duplicate).
		if i > 0 && d == 0 {
			return fmt.Errorf("%w: duplicate attribute delta", ErrCorrupt)
		}
		rest = rest[n:]
		prev += int(d)
		attrs[i] = prev
	}
	for i := range values {
		q, n := binary.Varint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: value %d", ErrCorrupt, i)
		}
		rest = rest[n:]
		values[i] = float64(q) * resolution
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	f.Attrs, f.Values = attrs, values
	return nil
}
