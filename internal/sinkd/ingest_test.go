package sinkd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ken/internal/deploy"
	"ken/internal/slo"
	"ken/internal/stream"
	"ken/internal/wire"
)

// session is a whole source session as bytes — HELLO, then every frame,
// each length-prefixed — with the reference replicas it must leave behind.
type session struct {
	blob    []byte
	offsets []int           // frame i's prefix starts at blob[offsets[i]]
	after   []stream.Answer // after[k] is a local reference fed frames 0..k-1
}

func buildSession(t *testing.T, name string, p deploy.Params) session {
	t.Helper()
	dep, err := deploy.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stream.NewReplica(dep.Config)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := wire.EncodeHello(wire.Hello{Version: wire.SessionVersion, Tenant: name, Spec: p.EncodeSpec()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(binary.BigEndian.AppendUint32(nil, uint32(len(hello))))
	buf.Write(hello)
	s := session{after: []stream.Answer{ref.Answer()}}
	for _, row := range dep.Test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		s.offsets = append(s.offsets, buf.Len())
		if err := stream.WriteFrame(&buf, f, src.Resolution()); err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(f); err != nil {
			t.Fatal(err)
		}
		s.after = append(s.after, ref.Answer())
	}
	s.blob = buf.Bytes()
	return s
}

// TestSessionSurvivesAnySegmentation sends one session two extreme ways —
// a byte per Write, and HELLO plus every frame in a single Write without
// waiting for ACCEPT — through the connection's one buffered reader. Both
// must leave the daemon's replica bit-identical to a local reference:
// nothing is lost between the handshake and the stream, whatever the
// segment boundaries.
func TestSessionSurvivesAnySegmentation(t *testing.T) {
	const steps = 60
	d, addr := newDaemon(t, Config{})
	send := map[string]func(net.Conn, []byte) error{
		"dribble": func(conn net.Conn, blob []byte) error {
			for i := range blob {
				if _, err := conn.Write(blob[i : i+1]); err != nil {
					return err
				}
			}
			return nil
		},
		"onewrite": func(conn net.Conn, blob []byte) error {
			_, err := conn.Write(blob)
			return err
		},
	}
	for name, write := range send {
		t.Run(name, func(t *testing.T) {
			s := buildSession(t, name, deploy.Params{Dataset: "garden", Seed: 6, TestSteps: steps, HeartbeatEvery: 16})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := write(conn, s.blob); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if reply, err := stream.ReadSession(conn); err != nil || reply.Accept == nil || reply.Accept.Tenant != name {
				t.Fatalf("handshake reply %+v, %v; want an accept for %s", reply, err, name)
			}
			ans, err := waitForStep(d, name, steps)
			if err != nil {
				t.Fatal(err)
			}
			want := s.after[steps]
			if !sameBits(ans.Estimates, want.Estimates) || ans.Heartbeats != want.Heartbeats || want.Heartbeats == 0 {
				t.Fatalf("%s: daemon replica diverged from the reference (heartbeats %d vs %d)", name, ans.Heartbeats, want.Heartbeats)
			}
			_ = conn.Close()
			if st, detail := waitForState(d, name, StateClosed); st != StateClosed {
				t.Fatalf("tenant state %s (%s), want closed", st, detail)
			}
		})
	}
}

// TestCorruptBodyFailsAtTheApplier: bodies are decoded where they are
// applied, so a corrupt frame j of n — queued behind good ones, with good
// ones behind it — fails the tenant when the applier reaches it. The
// detail names j, the answer is frozen after exactly the j frames before
// it (bit-identical to a reference fed those j), nothing later is applied,
// and the daemon hangs up, which is the reader leaving.
func TestCorruptBodyFailsAtTheApplier(t *testing.T) {
	const n, j = 40, 17
	d, addr := newDaemon(t, Config{})
	s := buildSession(t, "torn", deploy.Params{Dataset: "garden", Seed: 8, TestSteps: n})
	s.blob[s.offsets[j]+4] ^= 0xFF // the body's magic byte; its length prefix stays valid

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(s.blob); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if reply, err := stream.ReadSession(conn); err != nil || reply.Accept == nil {
		t.Fatalf("handshake reply %+v, %v; want an accept", reply, err)
	}
	// The source stays connected and idle; the daemon must hang up on its
	// own once the applier trips over frame j.
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the daemon never hung up on the failed tenant")
	}

	st, detail := waitForState(d, "torn", StateFailed)
	if st != StateFailed || !strings.Contains(detail, fmt.Sprintf("frame %d:", j)) || !strings.Contains(detail, "corrupt") {
		t.Fatalf("tenant state %s (%q), want failed naming frame %d as corrupt", st, detail, j)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/query?tenant=torn")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var q QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || q.State != StateFailed || q.Answer.Step != j {
		t.Fatalf("/v1/query: %s, state %s at step %d; want 200, failed, step %d", resp.Status, q.State, q.Answer.Step, j)
	}
	if !sameBits(q.Answer.Estimates, s.after[j].Estimates) {
		t.Fatalf("answer after %d frames diverged from a reference fed the same %d", j, j)
	}
	if got := d.mFrames.Value(); got != j {
		t.Fatalf("sinkd_frames_total = %d, want %d: frames behind the corrupt one were applied", got, j)
	}
	// The SLO verdict is asked with the session's own state: failed is
	// terminal and unhealthy, over a window of exactly the j applied frames.
	if st, _ := d.SLO("torn"); st.Health != slo.HealthTerminal || !st.Unhealthy || st.Window.TotalFrames != j {
		t.Fatalf("failed tenant's SLO status %+v, want terminal, unhealthy, %d frames", st, j)
	}
}
