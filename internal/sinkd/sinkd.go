// Package sinkd is the multi-tenant base-station daemon behind
// cmd/kensinkd. One listener hosts many concurrent deployments: each
// connection opens with a session handshake (internal/stream,
// internal/wire) carrying the serialized deployment spec, the daemon
// builds that tenant's replica via internal/deploy (a spec-keyed,
// single-flight build cache deduplicates the expensive model selection
// across tenants sharing a spec), and per-tenant goroutines apply the
// report stream under a bounded frame budget — a tenant that outruns its
// budget is shed with a typed wire.Reject frame instead of ever blocking
// the accept loop or the other tenants. The path from socket to replica
// moves bytes, not objects: one buffered reader per connection, encoded
// frame bodies in the queue, one decode in place at the applier (see
// Daemon.stream). Live answers are served
// thread-safely from the replicas (stream.Replica.Answer) through the
// HTTP query API in http.go.
package sinkd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"ken/internal/deploy"
	"ken/internal/obs"
	"ken/internal/slo"
	"ken/internal/stream"
	"ken/internal/wire"
)

// Config sizes and polices the daemon.
type Config struct {
	// MaxTenants caps concurrently registered tenants (default 1024);
	// further HELLOs are rejected with wire.RejectOverloaded.
	MaxTenants int
	// FrameBudget bounds each tenant's queue of read-but-unapplied frames
	// (default 256). A source that overruns it is shed with
	// wire.RejectSlowTenant.
	FrameBudget int
	// HandshakeTimeout bounds how long a connection may sit between
	// accept and a complete HELLO (default 10s) so half-open dials
	// cannot pin goroutines.
	HandshakeTimeout time.Duration
	// Pin, when non-nil, restricts admission to specs that build the
	// same replica (deploy.Params.ReplicaKey); others are rejected with
	// wire.RejectSpecMismatch. TestSteps/HeartbeatEvery may still differ.
	Pin *deploy.Params
	// Obs receives the daemon-wide metrics (sinkd_* series).
	Obs *obs.Observer
	// SLO sets the live monitor's health thresholds (internal/slo). The
	// zero value takes the slo defaults; QueueCap is always overridden with
	// FrameBudget and Obs with the daemon's observer.
	SLO slo.Config

	// ApplyDelay slows every frame apply. A fault-injection hook: tests
	// and ops rehearsals (make sinkd-smoke's degraded leg) use it to
	// drive the backpressure → shed → degraded-health path on demand.
	ApplyDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.FrameBudget <= 0 {
		c.FrameBudget = 256
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	return c
}

// TenantState is the lifecycle phase of a tenant session.
type TenantState string

const (
	// StateBuilding: handshake received, replica still being built.
	StateBuilding TenantState = "building"
	// StateStreaming: accepted and applying frames.
	StateStreaming TenantState = "streaming"
	// StateClosed: the source finished and closed the stream cleanly.
	StateClosed TenantState = "closed"
	// StateShed: the tenant outran its frame budget and was disconnected
	// with a typed reject; its replica stays queryable.
	StateShed TenantState = "shed"
	// StateFailed: the stream died on a decode or apply error.
	StateFailed TenantState = "failed"
)

func (s TenantState) terminal() bool {
	return s == StateClosed || s == StateShed || s == StateFailed
}

// readBufBytes sizes the one buffered reader a connection gets: a flooding
// source's 80-byte frames arrive hundreds per read(2) instead of two
// read(2) calls each.
const readBufBytes = 64 << 10

// queued is one frame as it came off the wire — the encoded body, exactly
// its size — stamped at enqueue time, so the applier can measure
// ingest→apply latency for the tenant's SLO window.
type queued struct {
	body []byte
	at   int64 // UnixNano when the reader queued the frame
}

// tenant is one deployment session and its replica.
type tenant struct {
	name   string
	params deploy.Params
	remote string
	// win is this session's SLO window: the applier folds every applied
	// frame into it, the HTTP handlers read it, under its own lock.
	win *slo.Window

	mu      sync.Mutex
	state   TenantState
	detail  string          // failure/shed reason
	replica *stream.Replica // nil until built

	frames chan queued
	// frame is the applier's decode target, reused for every queued body;
	// only the applier goroutine touches it.
	frame wire.Frame
}

// setState advances the lifecycle; terminal states are sticky so a late
// applier error cannot overwrite the shed/closed verdict.
func (t *tenant) setState(s TenantState, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state.terminal() {
		return
	}
	t.state = s
	t.detail = detail
}

func (t *tenant) snapshot() (TenantState, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state, t.detail
}

// built returns the tenant's replica, nil while it is still being built.
func (t *tenant) built() *stream.Replica {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.replica
}

// buildEntry single-flights one deploy.Build per replica key.
type buildEntry struct {
	once sync.Once
	dep  *deploy.Deployment
	err  error
}

// Daemon hosts many concurrent tenant deployments behind one listener.
type Daemon struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant
	builds  map[string]*buildEntry
	conns   map[net.Conn]struct{}
	seq     int
	closed  bool
	wg      sync.WaitGroup

	// monitor holds the SLO thresholds and shared slo_* series; every
	// admitted session gets its window from it.
	monitor *slo.Monitor

	// Daemon-wide metrics (the per-tenant stream_* numbers are the
	// replica's own counts, served via the HTTP API).
	mSessions obs.Counter // sinkd_sessions_total
	mAccepts  obs.Counter // sinkd_sessions_accepted_total
	mRejects  obs.Counter // sinkd_sessions_rejected_total
	mFrames   obs.Counter // sinkd_frames_total
	mValues   obs.Counter // sinkd_values_total
	mShed     obs.Counter // sinkd_tenants_shed_total
	mQueries  obs.Counter // sinkd_queries_total
	gTenants  obs.Gauge   // sinkd_tenants_registered
	mHTTP     obs.Counter // sinkd_http_requests_total
	tHTTP     obs.Timer   // sinkd_http_request_seconds

	// gUnhealthy (slo_tenants_unhealthy) is set where it is computed: Health.
	gUnhealthy obs.Gauge
}

// New assembles a daemon. Serve starts it; Close tears it down.
func New(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	if cfg.Obs == nil {
		// Counters stay live even unobserved: they are cheap and the shed /
		// reject totals are part of the daemon's behavioural contract.
		cfg.Obs = &obs.Observer{Reg: obs.NewRegistry()}
	}
	cfg.SLO.QueueCap = cfg.FrameBudget
	cfg.SLO.Obs = cfg.Obs
	reg := cfg.Obs.Registry()
	reg.Describe("slo_tenants_unhealthy", "tenants degraded, stale, shedding or failed at the last health evaluation")
	return &Daemon{
		cfg:       cfg,
		tenants:   map[string]*tenant{},
		builds:    map[string]*buildEntry{},
		conns:     map[net.Conn]struct{}{},
		monitor:   slo.NewMonitor(cfg.SLO),
		mSessions: reg.Counter("sinkd_sessions_total"),
		mAccepts:  reg.Counter("sinkd_sessions_accepted_total"),
		mRejects:  reg.Counter("sinkd_sessions_rejected_total"),
		mFrames:   reg.Counter("sinkd_frames_total"),
		mValues:   reg.Counter("sinkd_values_total"),
		mShed:     reg.Counter("sinkd_tenants_shed_total"),
		mQueries:  reg.Counter("sinkd_queries_total"),
		gTenants:  reg.Gauge("sinkd_tenants_registered"),
		mHTTP:     reg.Counter("sinkd_http_requests_total"),
		tHTTP:     reg.Timer("sinkd_http_request_seconds"),

		gUnhealthy: reg.Gauge("slo_tenants_unhealthy"),
	}
}

// Serve runs the accept loop until the listener closes. Every connection
// is handled on its own goroutine — handshake, replica build and frame
// application never run on the accept path, so one slow or hostile client
// cannot delay admission of the next.
func (d *Daemon) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.wg.Add(1)
		d.mu.Unlock()
		go d.handleConn(conn)
	}
}

// Close disconnects every live session and waits for their goroutines.
// The tenants stay registered: their replicas remain queryable through
// the HTTP API until the process exits.
func (d *Daemon) Close() {
	d.mu.Lock()
	d.closed = true
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	// Closing a socket can block; do it outside the daemon lock so queries
	// and tenant listings stay live during shutdown.
	for _, c := range conns {
		_ = c.Close()
	}
	d.wg.Wait()
}

// reject answers a handshake (or sheds a stream) with a typed REJECT and
// counts it. Write errors are ignored — the peer may already be gone.
func (d *Daemon) reject(conn net.Conn, code wire.RejectCode, format string, args ...any) {
	d.mRejects.Inc()
	_ = stream.WriteReject(conn, wire.Reject{Code: code, Reason: fmt.Sprintf(format, args...)})
}

// handleConn drives one session end to end.
func (d *Daemon) handleConn(conn net.Conn) {
	defer d.wg.Done()
	defer func() {
		_ = conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()

	d.mSessions.Inc()
	_ = conn.SetReadDeadline(time.Now().Add(d.cfg.HandshakeTimeout))
	// One buffered reader from the first byte: a source that sends HELLO
	// and its frames in one segment strands nothing between two readers.
	br := bufio.NewReaderSize(conn, readBufBytes)
	h, err := stream.ReadHello(br)
	if err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			d.reject(conn, wire.RejectVersion, "%v", err)
		} else {
			d.mRejects.Inc()
		}
		return
	}
	if h.Version != wire.SessionVersion {
		d.reject(conn, wire.RejectVersion,
			"session version mismatch: sink v%d, source v%d", uint64(wire.SessionVersion), h.Version)
		return
	}
	p, err := deploy.DecodeSpec(h.Spec)
	if err != nil {
		d.reject(conn, wire.RejectBadSpec, "%v", err)
		return
	}
	if err := p.Validate(); err != nil {
		d.reject(conn, wire.RejectBadSpec, "%v", err)
		return
	}
	if d.cfg.Pin != nil && p.ReplicaKey() != d.cfg.Pin.ReplicaKey() {
		d.reject(conn, wire.RejectSpecMismatch,
			"sink is pinned to %s, offered %s", d.cfg.Pin.ReplicaKey(), p.ReplicaKey())
		return
	}

	tn, rejCode, rejReason := d.register(h.Tenant, p, conn.RemoteAddr().String())
	if tn == nil {
		d.reject(conn, rejCode, "%s", rejReason)
		return
	}
	dep, err := d.build(p)
	if err != nil {
		d.unregister(tn.name)
		d.reject(conn, wire.RejectBadSpec, "building deployment: %v", err)
		return
	}
	replica, err := stream.NewReplica(dep.Config)
	if err != nil {
		d.unregister(tn.name)
		d.reject(conn, wire.RejectBadSpec, "building replica: %v", err)
		return
	}
	tn.mu.Lock()
	tn.replica = replica
	tn.mu.Unlock()

	if err := stream.WriteAccept(conn, wire.Accept{Tenant: tn.name}); err != nil {
		tn.setState(StateFailed, fmt.Sprintf("writing accept: %v", err))
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	tn.setState(StateStreaming, "")
	d.mAccepts.Inc()
	d.stream(conn, br, tn, replica)
}

// register reserves the tenant name (assigning an unregistered one when
// empty). A name
// whose previous session already ended is replaced — reconnecting with a
// fresh spec starts a fresh deployment with a fresh SLO window; a live
// duplicate is rejected.
func (d *Daemon) register(name string, p deploy.Params, remote string) (*tenant, wire.RejectCode, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if name == "" {
		// An assigned name skips every registered one, live or ended: a
		// client may have named itself "t1".
		for {
			d.seq++
			name = fmt.Sprintf("t%d", d.seq)
			if _, taken := d.tenants[name]; !taken {
				break
			}
		}
	}
	if old, ok := d.tenants[name]; ok {
		if st, _ := old.snapshot(); !st.terminal() {
			return nil, wire.RejectDuplicateTenant, fmt.Sprintf("tenant %q is already streaming", name)
		}
	}
	live := 0
	for _, t := range d.tenants {
		if st, _ := t.snapshot(); !st.terminal() {
			live++
		}
	}
	if live >= d.cfg.MaxTenants {
		return nil, wire.RejectOverloaded, fmt.Sprintf("at capacity (%d live tenants)", live)
	}
	tn := &tenant{
		name:   name,
		params: p,
		remote: remote,
		win:    d.monitor.NewWindow(),
		state:  StateBuilding,
		frames: make(chan queued, d.cfg.FrameBudget),
	}
	d.tenants[name] = tn
	d.gTenants.Set(float64(len(d.tenants)))
	return tn, 0, ""
}

func (d *Daemon) unregister(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.tenants, name)
	d.gTenants.Set(float64(len(d.tenants)))
}

// build returns the deployment for p's replica key, building it at most
// once across all tenants (single-flight). TestSteps is normalized to the
// minimum: the sink needs the training prefix only, and generators are
// prefix-stable, so tenants that differ in TestSteps share one build.
func (d *Daemon) build(p deploy.Params) (*deploy.Deployment, error) {
	key := p.ReplicaKey()
	d.mu.Lock()
	e, ok := d.builds[key]
	if !ok {
		e = &buildEntry{}
		d.builds[key] = e
	}
	d.mu.Unlock()
	e.once.Do(func() {
		sinkParams := p
		sinkParams.TestSteps = 1
		sinkParams.HeartbeatEvery = 0
		e.dep, e.err = deploy.Build(sinkParams)
	})
	return e.dep, e.err
}

// applyLoop is the tenant's applier: it folds queued frames into the
// replica until the reader closes the channel. It runs on its own
// goroutine, registered with the daemon WaitGroup so Close() joins it
// explicitly (not just transitively through the reader), and signals done
// so the reader can also join it before returning. The first body that
// fails to decode or apply fails the tenant, naming the frame by its
// position in the session; nothing after it is applied, and the connection
// is closed so a reader parked on an idle socket ends too.
func (d *Daemon) applyLoop(conn net.Conn, tn *tenant, replica *stream.Replica, done chan<- struct{}) {
	defer d.wg.Done()
	defer close(done)
	defer tn.win.Flush()
	n := 0
	for q := range tn.frames {
		if err := d.applyFrame(tn, replica, q); err != nil {
			tn.setState(StateFailed, fmt.Sprintf("applying frame %d: %v", n, err))
			_ = conn.Close() // wakes the reader; handleConn's own Close is then a no-op
			// Drain so the reader never blocks on a dead applier.
			for range tn.frames {
			}
			return
		}
		n++
	}
}

// applyFrame decodes one queued body into the tenant's frame and folds it
// into the replica, measuring pre-apply ε deviations, then folds what the
// frame did (stream.ApplyStats, the one per-frame record) into the tenant's
// SLO window. The decode reuses the frame's arrays and the window is fixed
// size, so the apply path keeps its 0-alloc budget
// (TestAllocBudgetSinkdApply); apart from the two sinkd_* counters it
// writes nothing another tenant's applier writes.
func (d *Daemon) applyFrame(tn *tenant, replica *stream.Replica, q queued) error {
	if d.cfg.ApplyDelay > 0 {
		time.Sleep(d.cfg.ApplyDelay)
	}
	if err := wire.DecodeInto(&tn.frame, q.body, replica.Resolution()); err != nil {
		return err
	}
	var st stream.ApplyStats
	if err := replica.ApplyObserved(tn.frame, &st); err != nil {
		return err
	}
	d.mFrames.Inc()
	d.mValues.Add(int64(st.Values))
	tn.win.Apply(&st, q.at, time.Now().UnixNano(), len(tn.frames))
	return nil
}

// stream is the per-tenant ingest path: the reader (readLoop, on this
// goroutine) splits length-prefixed bodies off the connection's buffered
// reader and queues them still encoded; a separate applier decodes each
// into the tenant's one reused frame and folds it into the replica, so a
// long Gaussian conditioning never backs up into the kernel buffers of
// other connections. The channel between them is the tenant's frame
// budget: when it overflows, the tenant is shed with a typed reject rather
// than blocking. A queued frame costs its wire bytes plus a slice header —
// about a fifth of what its decoded attrs/values would — and no more than
// stream's frame-size limit whatever a hostile source claims, which bounds
// a tenant's backlog at FrameBudget × that limit.
//
// Because frames are decoded where they are applied, a corrupt body fails
// the tenant when the applier reaches it, not when the reader sees it; the
// frames queued ahead of it are applied, none after it is. A clean EOF
// therefore becomes StateClosed only once the applier has drained the
// queue without failing.
func (d *Daemon) stream(conn net.Conn, br *bufio.Reader, tn *tenant, replica *stream.Replica) {
	applyDone := make(chan struct{})
	d.wg.Add(1)
	go d.applyLoop(conn, tn, replica, applyDone)

	overflow, err := d.readLoop(br, tn)
	switch {
	case overflow != nil:
		d.shed(conn, tn, overflow, replica.Resolution())
	case err != nil && err != io.EOF:
		tn.setState(StateFailed, fmt.Sprintf("reading frame: %v", err))
	}
	close(tn.frames)
	<-applyDone
	if err == io.EOF {
		tn.setState(StateClosed, "") // a no-op when the applier failed first
	}
}

// readLoop queues the connection's frame bodies until the session ends: in
// io.EOF at a frame boundary, in a read error, in the body that found the
// queue full (returned as overflow), or — both results nil — because the
// applier had already failed the tenant. It never decodes: a parse or an
// append creeping in here would put per-frame work back on the goroutine
// that has to keep up with the socket.
func (d *Daemon) readLoop(br *bufio.Reader, tn *tenant) (overflow []byte, err error) {
	for {
		body, err := stream.ReadBody(br)
		if err != nil {
			return nil, err
		}
		if st, _ := tn.snapshot(); st.terminal() {
			return nil, nil
		}
		select {
		case tn.frames <- queued{body: body, at: time.Now().UnixNano()}:
		default:
			return body, nil
		}
	}
}

// shed ends a session whose queue is full. It is the only place the reader
// side decodes, and only to name the step the tenant was shed at.
func (d *Daemon) shed(conn net.Conn, tn *tenant, body []byte, res float64) {
	f, err := wire.Decode(body, res)
	if err != nil {
		tn.setState(StateFailed, fmt.Sprintf("reading frame: %v", err))
		return
	}
	d.mShed.Inc()
	tn.win.Shed(time.Now().UnixNano())
	tn.setState(StateShed, fmt.Sprintf(
		"outran the %d-frame budget at step %d", d.cfg.FrameBudget, f.Step))
	d.reject(conn, wire.RejectSlowTenant,
		"shed: outran the %d-frame budget at step %d; reconnect to resume",
		d.cfg.FrameBudget, f.Step)
}

// TenantInfo is the /v1/tenants summary of one tenant.
type TenantInfo struct {
	Name       string      `json:"name"`
	State      TenantState `json:"state"`
	Detail     string      `json:"detail,omitempty"`
	Spec       string      `json:"spec"`
	Remote     string      `json:"remote,omitempty"`
	Step       int         `json:"step"`
	Heartbeats int         `json:"heartbeats"`
}

// sorted returns the registered tenants ordered by name, so every listing
// is deterministic.
func (d *Daemon) sorted() []*tenant {
	d.mu.Lock()
	tns := make([]*tenant, 0, len(d.tenants))
	for _, t := range d.tenants {
		tns = append(tns, t)
	}
	d.mu.Unlock()
	sort.Slice(tns, func(i, j int) bool { return tns[i].name < tns[j].name })
	return tns
}

// Tenants lists every registered tenant, sorted by name.
func (d *Daemon) Tenants() []TenantInfo {
	tns := d.sorted()
	out := make([]TenantInfo, 0, len(tns))
	for _, t := range tns {
		st, detail := t.snapshot()
		info := TenantInfo{
			Name: t.name, State: st, Detail: detail,
			Spec: t.params.ReplicaKey(), Remote: t.remote,
		}
		if replica := t.built(); replica != nil {
			info.Step, _, info.Heartbeats = replica.Counts()
		}
		out = append(out, info)
	}
	return out
}

// lookup returns the named tenant.
func (d *Daemon) lookup(name string) (*tenant, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tenants[name]
	return t, ok
}

// Answer snapshots the named tenant's live SELECT * answer.
func (d *Daemon) Answer(name string) (stream.Answer, bool) {
	t, ok := d.lookup(name)
	if !ok {
		return stream.Answer{}, false
	}
	replica := t.built()
	if replica == nil {
		return stream.Answer{}, false
	}
	return replica.Answer(), true
}

// Metrics reports what the named tenant's replica has applied, as the
// stream_* series (empty while the replica is still being built).
func (d *Daemon) Metrics(name string) (obs.Snapshot, bool) {
	t, ok := d.lookup(name)
	if !ok {
		return obs.Snapshot{}, false
	}
	replica := t.built()
	if replica == nil {
		return obs.Snapshot{}, true
	}
	frames, values, heartbeats := replica.Counts()
	return obs.Snapshot{
		Counters: map[string]int64{
			"stream_frames_applied_total":     int64(frames),
			"stream_values_applied_total":     int64(values),
			"stream_heartbeats_applied_total": int64(heartbeats),
		},
		// Frames arrive in step order from 0, so the newest applied step is
		// the count less one.
		Gauges: map[string]float64{"stream_replica_step": float64(max(frames-1, 0))},
	}, true
}

// SLO returns the named tenant's live windowed SLO status.
func (d *Daemon) SLO(name string) (slo.TenantStatus, bool) {
	t, ok := d.lookup(name)
	if !ok {
		return slo.TenantStatus{}, false
	}
	st, _ := t.snapshot()
	return t.win.Status(name, string(st)), true
}

// HealthTenant is one tenant's entry in the health report: the session
// state machine's view (state/detail) joined with the verdict on its SLO
// window.
type HealthTenant struct {
	Name    string          `json:"name"`
	State   TenantState     `json:"state"`
	Detail  string          `json:"detail,omitempty"`
	Health  slo.Health      `json:"health"`
	Reasons []string        `json:"reasons,omitempty"`
	Window  slo.WindowStats `json:"window"`
}

// HealthReport is the GET /v1/health payload. Status is "ok" when no
// tenant is unhealthy (clean closes are benign), "degraded" otherwise —
// the HTTP layer maps "degraded" to a non-200 so probes and load
// balancers need no JSON parsing.
type HealthReport struct {
	Status    string         `json:"status"`
	Unhealthy int            `json:"unhealthy"`
	Tenants   []HealthTenant `json:"tenants"`
}

// Health evaluates every tenant against its SLO window and folds the
// verdicts into one daemon-level readiness answer (and the
// slo_tenants_unhealthy gauge).
func (d *Daemon) Health() HealthReport {
	tns := d.sorted()
	rep := HealthReport{Status: "ok", Tenants: make([]HealthTenant, 0, len(tns))}
	for _, t := range tns {
		state, detail := t.snapshot()
		st := t.win.Status(t.name, string(state))
		if st.Unhealthy {
			rep.Unhealthy++
		}
		rep.Tenants = append(rep.Tenants, HealthTenant{
			Name: t.name, State: state, Detail: detail,
			Health: st.Health, Reasons: st.Reasons, Window: st.Window,
		})
	}
	if rep.Unhealthy > 0 {
		rep.Status = "degraded"
	}
	d.gUnhealthy.Set(float64(rep.Unhealthy))
	return rep
}
