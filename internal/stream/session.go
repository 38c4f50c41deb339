// Session handshake transport. Session frames (wire.Hello / wire.Accept /
// wire.Reject) travel length-prefixed exactly like report frames, so one
// connection carries a handshake followed by the report stream. The spec
// bytes inside HELLO are opaque here — internal/deploy owns that schema;
// this layer moves and types them.
package stream

import (
	"fmt"
	"io"
	"net"
	"time"

	"ken/internal/wire"
)

// Handshake opens a session client-side: it writes HELLO and blocks for
// the sink's reply. A REJECT comes back as the typed error of its code
// (wire.ErrVersionMismatch or wire.ErrSpecRejected); an ACCEPT from a
// sink speaking a different session version is a version mismatch naming
// both sides.
func Handshake(rw io.ReadWriter, h wire.Hello) (wire.Accept, error) {
	if h.Version == 0 {
		h.Version = wire.SessionVersion
	}
	buf, err := wire.EncodeHello(h)
	if err != nil {
		return wire.Accept{}, err
	}
	if err := writeRaw(rw, buf); err != nil {
		return wire.Accept{}, err
	}
	s, err := ReadSession(rw)
	if err != nil {
		if err == io.EOF {
			return wire.Accept{}, fmt.Errorf("stream: sink closed the connection during handshake: %w", io.ErrUnexpectedEOF)
		}
		return wire.Accept{}, err
	}
	switch {
	case s.Reject != nil:
		return wire.Accept{}, s.Reject.Err()
	case s.Accept != nil:
		if s.Accept.Version != h.Version {
			return wire.Accept{}, fmt.Errorf("%w: local v%d, remote v%d",
				wire.ErrVersionMismatch, h.Version, s.Accept.Version)
		}
		return *s.Accept, nil
	default:
		return wire.Accept{}, fmt.Errorf("stream: sink answered the handshake with a %v frame", s.Kind())
	}
}

// ReadHello reads the client's opening session frame sink-side. A peer
// that opens with a pre-session report frame surfaces as
// wire.ErrVersionMismatch (stale binary), not as corruption.
func ReadHello(rd io.Reader) (wire.Hello, error) {
	s, err := ReadSession(rd)
	if err != nil {
		return wire.Hello{}, err
	}
	if s.Hello == nil {
		return wire.Hello{}, fmt.Errorf("stream: expected hello, got %v frame", s.Kind())
	}
	return *s.Hello, nil
}

// ReadSession reads and decodes one length-prefixed session frame.
func ReadSession(rd io.Reader) (wire.Session, error) {
	buf, err := readRawInto(rd, nil)
	if err != nil {
		return wire.Session{}, err
	}
	return wire.DecodeSession(buf)
}

// WriteAccept sends an ACCEPT, filling in this build's session version
// when unset.
func WriteAccept(w io.Writer, a wire.Accept) error {
	if a.Version == 0 {
		a.Version = wire.SessionVersion
	}
	buf, err := wire.EncodeAccept(a)
	if err != nil {
		return err
	}
	return writeRaw(w, buf)
}

// WriteReject sends a REJECT, filling in this build's session version
// when unset. Sinks send it instead of ACCEPT during the handshake, or
// mid-stream (RejectSlowTenant) just before shedding a connection.
func WriteReject(w io.Writer, r wire.Reject) error {
	if r.Version == 0 {
		r.Version = wire.SessionVersion
	}
	buf, err := wire.EncodeReject(r)
	if err != nil {
		return err
	}
	return writeRaw(w, buf)
}

// pendingReject drains the session frames waiting on conn after a write
// error and returns the sink's typed REJECT, or nil when none arrives within
// two seconds — so a shed source reports the sink's reason, not a raw EPIPE.
func pendingReject(conn net.Conn) error {
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return nil
	}
	for {
		s, err := ReadSession(conn)
		if err != nil {
			return nil
		}
		if s.Reject != nil {
			return s.Reject.Err()
		}
	}
}
