package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventType names a protocol event. The set covers the observable decision
// points of the Ken pipeline; docs/OBSERVABILITY.md maps each to its place
// in the paper.
type EventType string

const (
	// EvEpochStart marks the beginning of one sampling epoch (one trace row
	// replayed, or one simnet round). Its Span is the epoch span id every
	// event inside the epoch carries in Epoch.
	EvEpochStart EventType = "epoch_start"
	// EvEpochEnd closes an epoch; N carries the values reported during it
	// and Payload carries the audit triple (predicted, observed, ε) plus the
	// epoch's bytes on wire.
	EvEpochEnd EventType = "epoch_end"
	// EvReport records a clique source transmitting Attrs/Values to the
	// sink — the minimal set that pulls predictions back inside ε (§3.2).
	// Payload carries the source model's predictions for the reported
	// attributes, the observed values, the bounds, and the bytes on wire.
	EvReport EventType = "report"
	// EvSuppress records the attributes a clique did NOT transmit because
	// the replicated model already predicted them within ε — the savings
	// the paper's Figs 9/10 plot.
	EvSuppress EventType = "suppress"
	// EvApply records the sink replica folding in a delivered report (the
	// causal tail of an EvReport: Parent links back to the report span).
	EvApply EventType = "sink_apply"
	// EvPull records a BBQ-style pull engine acquiring one reading on
	// demand (attribute in Node, reading in Values).
	EvPull EventType = "pull_acquire"
	// EvHop records one link-level radio transmission in simnet (Node is
	// the transmitter; Payload carries from/to/bytes).
	EvHop EventType = "net_hop"
	// EvDrop records a message dying in flight (Detail: "loss", "noroute"
	// or "dead"); Parent links to the span whose traffic was lost.
	EvDrop EventType = "net_drop"
	// EvNodeFailure records a simulated node exhausting its battery.
	EvNodeFailure EventType = "node_failure"
	// EvRetx records an ARQ retransmission: the sender heard no ack and is
	// re-sending (N carries the backoff slots drawn, Payload.Attempt the
	// 1-based retransmission number).
	EvRetx EventType = "net_retx"
	// EvAck records a link-layer acknowledgement completing its return trip
	// to the original sender (Payload carries the ack's endpoints and wire
	// bytes).
	EvAck EventType = "net_ack"
	// EvSuspect records the base-station failure detector turning
	// suspicious about a silent node (§6; N carries the silence length).
	EvSuspect EventType = "failure_suspect"
	// EvResync records a full-value heartbeat re-synchronising the
	// replicated models after possible divergence (§6 message loss).
	EvResync EventType = "model_resync"
	// EvRunEnd closes one core.Run replay; Payload carries the Result
	// totals (steps, values, violations, bytes) the offline auditor checks
	// the per-epoch accounting against.
	EvRunEnd EventType = "run_end"
)

// Payload is the typed audit payload of an event. Which fields are set
// depends on the event type (see docs/OBSERVABILITY.md, "Event schema").
type Payload struct {
	// Predicted / Observed / Eps are parallel per-attribute triples: the
	// model's prediction, the ground truth, and the error bound.
	Predicted []float64 `json:"pred,omitempty"`
	Observed  []float64 `json:"obs,omitempty"`
	Eps       []float64 `json:"eps,omitempty"`
	// Chunk sequences messages/frames within their epoch (stream frame
	// index, simnet send sequence).
	Chunk int `json:"chunk,omitempty"`
	// Bytes is the payload size on the wire.
	Bytes int `json:"bytes,omitempty"`
	// From/To name the endpoints of a link-level transmission (EvHop).
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Attempt is the 1-based retransmission number of an EvRetx.
	Attempt int `json:"attempt,omitempty"`
	// Retx and LinkBytes are per-epoch radio-ledger totals declared on an
	// EvEpochEnd: retransmissions issued and link-level bytes transmitted
	// (every hop of every message, acks included). They are audited against
	// the epoch's EvRetx/EvHop events, while Bytes is audited against the
	// protocol ledger of EvReport payloads — see docs/OBSERVABILITY.md,
	// "Two byte ledgers".
	Retx      int `json:"retx,omitempty"`
	LinkBytes int `json:"link_bytes,omitempty"`
	// Run-summary totals (EvRunEnd only).
	Steps      int `json:"steps,omitempty"`
	Values     int `json:"values,omitempty"`
	Violations int `json:"violations,omitempty"`
}

// WireBytesPerValue is the first-order cost of one reported (attribute,
// value) pair on a mote radio: a 2-byte attribute id plus a 2-byte
// ADC-width reading — the same accounting simnet's Message uses (simnet
// additionally charges per-message header overhead).
const WireBytesPerValue = 4

// Event is one structured protocol event. Clique and Node are -1 when not
// applicable so that index 0 stays unambiguous. Epoch/Span/Parent are the
// causal span context: Epoch is the enclosing epoch span id, Span the
// event's own id (when it roots further causation), and Parent the id of
// the span that caused it (0 = uncaused/root).
type Event struct {
	Type    EventType `json:"type"`
	Step    int64     `json:"step"`
	Clique  int       `json:"clique"`
	Node    int       `json:"node"`
	Epoch   int64     `json:"epoch,omitempty"`
	Span    int64     `json:"span,omitempty"`
	Parent  int64     `json:"parent,omitempty"`
	Scope   string    `json:"scope,omitempty"`
	TS      int64     `json:"ts,omitempty"` // wall-clock nanos, only with StampWallClock
	Attrs   []int     `json:"attrs,omitempty"`
	Values  []float64 `json:"values,omitempty"`
	N       int       `json:"n,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	Payload *Payload  `json:"payload,omitempty"`
}

// TraceKind and TraceSchema identify the JSONL trace format. The first
// line of every trace written by NewTracer is a TraceHeader; readers
// reject schemas they do not understand instead of silently decoding
// partial events.
const (
	TraceKind   = "ken-trace"
	TraceSchema = 2
)

// TraceHeader is the first JSONL line of a trace file.
type TraceHeader struct {
	Kind   string `json:"kind"`
	Schema int    `json:"schema"`
}

// LineSink receives encoded event lines instead of a flat byte stream —
// the seam between the tracer and a segmented store. The scope and step
// ride alongside the line so the sink can index without decoding it;
// the line is the exact JSON the flat tracer would have written, sans
// newline. tracestore.Writer satisfies this structurally, keeping the
// dependency arrow pointing obs → tracestore.
type LineSink interface {
	WriteEventLine(scope string, step int64, line []byte) error
	Flush() error
}

// tracerCore is the shared sink behind every scoped Tracer view. Exactly
// one of (bw, enc) or sink is set: flat-file mode encodes straight into
// the buffered writer; sink mode hands each encoded line to a LineSink.
type tracerCore struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	sink   LineSink
	err    error
	events int64
	spans  atomic.Int64
	stamp  bool
}

// Tracer serialises protocol events as JSON Lines. A nil *Tracer is the
// "tracing off" mode: Emit returns immediately. Emit is safe for
// concurrent use. Observer.Scoped derives cheap views that label every
// event with a scope path, so concurrent experiment cells writing one file
// stay attributable.
type Tracer struct {
	scope string
	c     *tracerCore
}

// NewTracer wraps the writer (typically an *os.File) in a buffered JSONL
// encoder and writes the schema header line. Call Flush (or Close the
// underlying file after Flush) when done.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	t := &Tracer{c: &tracerCore{bw: bw, enc: json.NewEncoder(bw)}}
	if err := t.c.enc.Encode(TraceHeader{Kind: TraceKind, Schema: TraceSchema}); err != nil {
		t.c.err = fmt.Errorf("obs: trace header: %w", err)
	}
	return t
}

// NewTracerSink routes events to a LineSink (a segmented trace store)
// instead of a flat file. No schema-2 header is written — the sink owns
// its own framing. Everything else (scoped views, spans, wall-clock
// stamping, sticky errors) behaves identically to NewTracer.
func NewTracerSink(s LineSink) *Tracer {
	return &Tracer{c: &tracerCore{sink: s}}
}

// withScope returns a view of the tracer whose events carry the given
// scope label, nested under any existing scope with "/". Views share the
// underlying sink, error state, event count and span id space. The caller,
// Observer.Scoped, handles nil and the empty label.
func (t *Tracer) withScope(scope string) *Tracer {
	if t.scope != "" {
		scope = t.scope + "/" + scope
	}
	return &Tracer{scope: scope, c: t.c}
}

// StampWallClock makes the tracer stamp every event with wall-clock
// nanoseconds (Event.TS). Off by default: deterministic pipelines produce
// byte-comparable traces, and the auditor derives epoch latency only when
// stamps are present. Clock access stays inside obs, like Timer.
func (t *Tracer) StampWallClock() {
	if t == nil {
		return
	}
	t.c.mu.Lock()
	t.c.stamp = true
	t.c.mu.Unlock()
}

// NewSpanID allocates the next span id (monotone per underlying trace,
// shared across scoped views). 0 on nil.
func (t *Tracer) NewSpanID() int64 {
	if t == nil {
		return 0
	}
	return t.c.spans.Add(1)
}

// Emit appends one event, stamping the view's scope (unless the event
// already carries one). The first encoding error sticks and is reported
// by Flush; later events are dropped so a broken sink cannot stall the
// protocol.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.Scope == "" {
		e.Scope = t.scope
	}
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	if c.stamp && e.TS == 0 {
		e.TS = time.Now().UnixNano()
	}
	if c.sink != nil {
		line, err := json.Marshal(e)
		if err != nil {
			c.err = fmt.Errorf("obs: trace emit: %w", err)
			return
		}
		if err := c.sink.WriteEventLine(e.Scope, e.Step, line); err != nil {
			c.err = fmt.Errorf("obs: trace emit: %w", err)
			return
		}
		c.events++
		return
	}
	if err := c.enc.Encode(e); err != nil {
		c.err = fmt.Errorf("obs: trace emit: %w", err)
		return
	}
	c.events++
}

// Events returns how many events were successfully emitted (the header
// line is not an event).
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.events
}

// Flush drains the buffer and returns the first error seen (emit or
// flush). Safe on nil.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.c.sink != nil {
		if err := t.c.sink.Flush(); err != nil && t.c.err == nil {
			t.c.err = fmt.Errorf("obs: trace flush: %w", err)
		}
		return t.c.err
	}
	// The flush runs under the lock on purpose: the tracer serializes
	// writer access behind it, and a Flush outside it would race Emit.
	if err := t.c.bw.Flush(); err != nil && t.c.err == nil {
		t.c.err = fmt.Errorf("obs: trace flush: %w", err)
	}
	return t.c.err
}

// Span is a causal epoch context: a value that stamps every event
// emitted through it with the enclosing epoch id, its own span id, and
// its parent link, so an offline auditor can walk report → hop → apply
// chains. The zero Span is inactive — every method on it is a no-op — so
// instrumented code holds one span and calls it unconditionally; guard
// only payload construction, via Active.
type Span struct {
	t      *Tracer
	epoch  int64
	id     int64
	parent int64
}

// StartEpoch allocates an epoch span and emits its EvEpochStart event
// (the passed event's Type/Epoch/Span/Parent are overwritten). Returns
// the zero Span on a nil tracer.
func (t *Tracer) StartEpoch(e Event) Span {
	if t == nil {
		return Span{}
	}
	id := t.NewSpanID()
	e.Type, e.Epoch, e.Span, e.Parent = EvEpochStart, id, id, 0
	t.Emit(e)
	return Span{t: t, epoch: id, id: id}
}

// Active reports whether emitting through the span reaches a sink — the
// one liveness test, and the guard for skipping payload construction on
// the dark path.
func (s Span) Active() bool { return s.t != nil }

// Child allocates a sub-span parented to this one: events emitted through
// the child carry Parent = this span's id. The zero Span's child is zero.
func (s Span) Child() Span {
	if s.t == nil {
		return Span{}
	}
	return Span{t: s.t, epoch: s.epoch, id: s.t.NewSpanID(), parent: s.id}
}

// Emit stamps the span context (Epoch, Span, Parent) onto the event and
// emits it. No-op on the zero Span.
func (s Span) Emit(e Event) {
	if s.t == nil {
		return
	}
	e.Epoch, e.Span, e.Parent = s.epoch, s.id, s.parent
	s.t.Emit(e)
}

// EndEpoch closes the epoch: emits EvEpochEnd carrying the span context
// (the passed event's Type/Epoch/Span/Parent are overwritten). No-op on
// the zero Span.
func (s Span) EndEpoch(e Event) {
	if s.t == nil {
		return
	}
	e.Type, e.Epoch, e.Span, e.Parent = EvEpochEnd, s.epoch, s.id, s.parent
	s.t.Emit(e)
}

// SchemaError reports a trace whose header declares a schema this build
// does not read.
type SchemaError struct {
	Got, Want int
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("obs: trace schema %d is not supported (this build reads schema %d); regenerate the trace with a matching build", e.Got, e.Want)
}

// StreamEvents decodes a JSONL stream written by a Tracer, handing each
// event to fn as it is read — the constant-memory replay side of
// protocol tracing. A schema header, when present, must match
// TraceSchema (else *SchemaError); headerless streams are accepted as
// the legacy (schema 1) format. An error from fn aborts the stream and
// is returned verbatim.
func StreamEvents(r io.Reader, fn func(Event) error) error {
	dec := json.NewDecoder(r)
	first := true
	n := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("obs: reading trace event %d: %w", n, err)
		}
		if first {
			first = false
			var hdr TraceHeader
			if err := json.Unmarshal(raw, &hdr); err == nil && hdr.Kind == TraceKind {
				if hdr.Schema != TraceSchema {
					return &SchemaError{Got: hdr.Schema, Want: TraceSchema}
				}
				continue
			}
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("obs: reading trace event %d: %w", n, err)
		}
		if err := fn(e); err != nil {
			return err
		}
		n++
	}
}

// ReadEvents decodes a JSONL stream written by a Tracer into a slice —
// StreamEvents for callers that want everything in memory. On error the
// events read so far are returned alongside it, except for a schema
// mismatch, which returns nil.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	err := StreamEvents(r, func(e Event) error {
		out = append(out, e)
		return nil
	})
	var se *SchemaError
	if errors.As(err, &se) {
		return nil, err
	}
	return out, err
}
