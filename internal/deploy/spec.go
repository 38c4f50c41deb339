// Deployment-spec wire schema. The session handshake (internal/wire,
// internal/stream) carries a serialized Params in the HELLO frame so the
// sink can build a bit-identical replica from the client's spec instead
// of trusting matched CLI flags. The encoding is versioned and pinned by
// a golden test: changing it silently would strand deployed sources.
package deploy

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
)

// SpecVersion is the serialized Params schema version. Decoders accept
// every version they know how to parse; unknown versions yield
// ErrSpecVersion so a sink can name the gap instead of misparsing.
const SpecVersion = 1

// ErrSpecVersion reports a serialized spec from an unknown schema version.
var ErrSpecVersion = errors.New("deploy: unknown spec version")

// maxSpecSteps bounds the step counts a remote spec may request, so a
// hostile HELLO cannot make the sink generate an absurd trace.
const maxSpecSteps = 1 << 20

// Register installs the shared deployment flag block — -dataset, -seed,
// -train, -k and -eps — on fs, replacing the hand-copied per-binary sets.
// TestSteps and HeartbeatEvery stay per-binary flags: they shape the
// source's run, not the replica both sides must agree on.
func (p *Params) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.Dataset, "dataset", "garden", "deployment: garden or lab")
	fs.Int64Var(&p.Seed, "seed", 1, "shared deployment seed")
	fs.IntVar(&p.TrainSteps, "train", 100, "shared training steps")
	fs.IntVar(&p.K, "k", 2, "shared max clique size")
	fs.Float64Var(&p.Epsilon, "eps", 0, "shared error bound override (0 = attribute default)")
}

// Validate checks the (default-normalized) parameters without building
// anything — the admission check a sink runs on a decoded HELLO spec.
func (p Params) Validate() error {
	p = p.withDefaults()
	switch p.Dataset {
	case "garden", "lab":
	default:
		return fmt.Errorf("deploy: unknown dataset %q (garden or lab)", p.Dataset)
	}
	if p.TrainSteps > maxSpecSteps || p.TestSteps > maxSpecSteps {
		return fmt.Errorf("deploy: %d train / %d test steps exceed the %d-step limit",
			p.TrainSteps, p.TestSteps, maxSpecSteps)
	}
	if p.K > 64 {
		return fmt.Errorf("deploy: clique size k=%d exceeds 64", p.K)
	}
	if p.Epsilon < 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("deploy: invalid epsilon %v", p.Epsilon)
	}
	if p.HeartbeatEvery < 0 {
		return fmt.Errorf("deploy: negative heartbeat interval %d", p.HeartbeatEvery)
	}
	return nil
}

// EncodeSpec serialises the default-normalized parameters for the HELLO
// frame. Encoding normalizes first so two specs that build the same
// deployment encode to the same bytes.
func (p Params) EncodeSpec() []byte {
	p = p.withDefaults()
	buf := make([]byte, 0, 32+len(p.Dataset))
	buf = binary.AppendUvarint(buf, SpecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(p.Dataset)))
	buf = append(buf, p.Dataset...)
	buf = binary.AppendVarint(buf, p.Seed)
	buf = binary.AppendUvarint(buf, uint64(p.TrainSteps))
	buf = binary.AppendUvarint(buf, uint64(p.TestSteps))
	buf = binary.AppendUvarint(buf, uint64(p.K))
	var eps [8]byte
	binary.LittleEndian.PutUint64(eps[:], math.Float64bits(p.Epsilon))
	buf = append(buf, eps[:]...)
	buf = binary.AppendUvarint(buf, uint64(p.HeartbeatEvery))
	return buf
}

// DecodeSpec parses a serialized spec. It accepts every schema version
// this build knows (currently v1) and returns ErrSpecVersion — naming the
// version — for anything newer.
func DecodeSpec(buf []byte) (Params, error) {
	version, n := binary.Uvarint(buf)
	if n <= 0 {
		return Params{}, errors.New("deploy: corrupt spec: version")
	}
	if version != 1 {
		return Params{}, fmt.Errorf("%w %d (this build speaks v%d)", ErrSpecVersion, version, SpecVersion)
	}
	rest := buf[n:]
	dsLen, n := binary.Uvarint(rest)
	if n <= 0 || dsLen > 64 {
		return Params{}, errors.New("deploy: corrupt spec: dataset length")
	}
	rest = rest[n:]
	if uint64(len(rest)) < dsLen {
		return Params{}, errors.New("deploy: corrupt spec: truncated dataset")
	}
	var p Params
	p.Dataset = string(rest[:dsLen])
	rest = rest[dsLen:]
	seed, n := binary.Varint(rest)
	if n <= 0 {
		return Params{}, errors.New("deploy: corrupt spec: seed")
	}
	rest = rest[n:]
	p.Seed = seed
	for _, f := range []struct {
		dst  *int
		what string
	}{
		{&p.TrainSteps, "train steps"},
		{&p.TestSteps, "test steps"},
		{&p.K, "k"},
	} {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > maxSpecSteps {
			return Params{}, fmt.Errorf("deploy: corrupt spec: %s", f.what)
		}
		rest = rest[n:]
		*f.dst = int(v)
	}
	if len(rest) < 8 {
		return Params{}, errors.New("deploy: corrupt spec: epsilon")
	}
	p.Epsilon = math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
	rest = rest[8:]
	hb, n := binary.Uvarint(rest)
	if n <= 0 || hb > maxSpecSteps {
		return Params{}, errors.New("deploy: corrupt spec: heartbeat")
	}
	rest = rest[n:]
	if len(rest) != 0 {
		return Params{}, errors.New("deploy: corrupt spec: trailing bytes")
	}
	p.HeartbeatEvery = int(hb)
	return p, nil
}

// ReplicaKey is the canonical string of the fields that determine the
// sink replica — dataset, seed, training prefix, clique bound and ε.
// TestSteps and HeartbeatEvery are deliberately excluded: they shape the
// source's run, not the replica, so two tenants that differ only there
// share one build (and a pinned sink accepts both).
func (p Params) ReplicaKey() string {
	p = p.withDefaults()
	return fmt.Sprintf("%s/seed=%d/train=%d/k=%d/eps=%g",
		p.Dataset, p.Seed, p.TrainSteps, p.K, p.Epsilon)
}
