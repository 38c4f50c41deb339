package sinkd

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"ken/internal/deploy"
	"ken/internal/stream"
	"ken/internal/wire"
)

// The witnesses in this file hold the daemon to one rule: no socket is
// closed, and nothing waits, while d.mu is held. Each stalls a socket's
// Close and requires that calls taking d.mu still finish, within a
// deadline rather than by the test binary's timeout.

// lockDeadline bounds how long a call may block behind a stalled socket
// before the witnesses call it a held lock.
const lockDeadline = 5 * time.Second

// within fails the test unless f returns within lockDeadline.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(lockDeadline):
		t.Fatalf("%s: still blocked after %v", what, lockDeadline)
	}
}

// stallConn is the server end of an in-memory connection whose Close
// blocks until release is called — a socket whose teardown hangs. closing
// is closed when the first Close begins.
type stallConn struct {
	net.Conn
	closing     chan struct{}
	releaseCh   chan struct{}
	closingOnce sync.Once
	releaseOnce sync.Once
}

// newStallConn returns a stalled server end and its client end.
func newStallConn() (*stallConn, net.Conn) {
	server, client := net.Pipe()
	return &stallConn{Conn: server, closing: make(chan struct{}), releaseCh: make(chan struct{})}, client
}

func (c *stallConn) Close() error {
	c.closingOnce.Do(func() { close(c.closing) })
	<-c.releaseCh
	return c.Conn.Close()
}

// release lets every Close, pending or later, through.
func (c *stallConn) release() { c.releaseOnce.Do(func() { close(c.releaseCh) }) }

// chanListener is a net.Listener that accepts the connections sent on
// conns until it is closed.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newChanListener() *chanListener {
	return &chanListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return &net.UnixAddr{Name: "chan", Net: "unix"} }

// serve runs d.Serve(ln) and returns a wait for its result.
func serve(d *Daemon, ln net.Listener) func() error {
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	return func() error { return <-served }
}

// lockSpec is the spec the witnesses' tenants stream. Its deployment is
// built before the stall, so a handshake measures locking, not model
// selection.
var lockSpec = deploy.Params{Dataset: "garden", Seed: 1, TestSteps: 5}

func warmDaemon(t *testing.T) *Daemon {
	t.Helper()
	d := New(Config{})
	if _, err := d.build(lockSpec); err != nil {
		t.Fatal(err)
	}
	return d
}

// handshakeOver runs a source handshake on client as tenant name.
func handshakeOver(client net.Conn, name string) error {
	acc, err := stream.Handshake(client, wire.Hello{Tenant: name, Spec: lockSpec.EncodeSpec()})
	if err == nil && acc.Tenant != name {
		err = fmt.Errorf("accepted as %q", acc.Tenant)
	}
	return err
}

// TestCloseStalledSocketKeepsDaemonLive: while Daemon.Close is stuck
// closing one socket, tenant listings and a second tenant's handshake
// still complete.
func TestCloseStalledSocketKeepsDaemonLive(t *testing.T) {
	d := warmDaemon(t)
	stalled, peer := newStallConn()
	defer peer.Close()
	defer stalled.release()
	ln := newChanListener()
	defer ln.Close()
	waitServe := serve(d, ln)
	ln.conns <- stalled
	within(t, "the stalled connection to register", func() error {
		for {
			d.mu.Lock()
			_, ok := d.conns[stalled]
			d.mu.Unlock()
			if ok {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	})
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	within(t, "Close to reach the stalled socket", func() error { <-stalled.closing; return nil })

	within(t, "Tenants() during a stalled Close", func() error { d.Tenants(); return nil })
	// Serve refuses connections once Close has begun, so the second
	// tenant's session is handed to the daemon directly.
	server, client := net.Pipe()
	defer client.Close()
	d.wg.Add(1)
	go d.handleConn(server)
	within(t, "a second tenant's handshake during a stalled Close", func() error {
		return handshakeOver(client, "second")
	})

	stalled.release()
	client.Close()
	within(t, "Close after the socket is released", func() error { <-closed; return nil })
	ln.Close()
	if err := waitServe(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedSessionStalledCloseKeepsDaemonLive: a rejected session whose
// socket stalls in Close holds up nobody; a second tenant handshakes and
// appears in /v1/tenants meanwhile.
func TestRejectedSessionStalledCloseKeepsDaemonLive(t *testing.T) {
	d := warmDaemon(t)
	defer d.Close()
	stalled, peer := newStallConn()
	defer peer.Close()
	defer stalled.release()
	ln := newChanListener()
	defer ln.Close()
	waitServe := serve(d, ln)
	ln.conns <- stalled
	within(t, "the rejected handshake", func() error {
		_, err := stream.Handshake(peer, wire.Hello{Tenant: "bad", Spec: []byte("not a spec")})
		if err == nil {
			return fmt.Errorf("a garbage spec was accepted")
		}
		return nil
	})
	within(t, "the rejected session to close its socket", func() error { <-stalled.closing; return nil })

	server, client := net.Pipe()
	defer client.Close()
	ln.conns <- server
	within(t, "a second tenant's handshake while a rejected socket stalls", func() error {
		return handshakeOver(client, "second")
	})
	within(t, "/v1/tenants while a rejected socket stalls", func() error {
		names, err := tenantNames(d)
		if err == nil && !slices.Equal(names, []string{"second"}) {
			err = fmt.Errorf("lists %v, want [second]", names)
		}
		return err
	})

	stalled.release()
	client.Close()
	ln.Close()
	if err := waitServe(); err != nil {
		t.Fatal(err)
	}
}

// TestServeOnClosedDaemonReleasesLock: Serve handed a connection after
// Close turns it away without holding d.mu, neither while the socket's
// Close stalls nor after Serve returns.
func TestServeOnClosedDaemonReleasesLock(t *testing.T) {
	d := New(Config{})
	d.Close()
	stalled, peer := newStallConn()
	defer peer.Close()
	defer stalled.release()
	ln := newChanListener()
	defer ln.Close()
	waitServe := serve(d, ln)
	ln.conns <- stalled
	within(t, "Serve to close the late connection", func() error { <-stalled.closing; return nil })
	within(t, "Tenants() while Serve closes a late connection", func() error { d.Tenants(); return nil })

	stalled.release()
	within(t, "Serve to return on a closed daemon", waitServe)
	within(t, "Tenants() after Serve returned", func() error { d.Tenants(); return nil })
}
