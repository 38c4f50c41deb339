// Package stream runs the Ken protocol between two real processes: a
// Source colocated with the sensor network and a sink Replica at the base
// station, exchanging compact wire frames over any io.Reader/io.Writer —
// in production a TCP connection, in tests a net.Pipe.
//
// This realises the paper's §6 observation that the replicated-model
// approach extends naturally to approximate caching and distributed
// streams: the sink answers continuously from its replica, and the source
// ships only the minimal frames needed to keep every answer within ε.
//
// Values travel quantized (wire.Frame); the Source conditions its own
// replica on the quantized values it sends, so both replicas stay in
// bit-exact lock-step, and it runs the protocol at ε − quantum/2, the
// rounding a reported value may suffer (docs/PROTOCOL.md §5).
//
// Both endpoints are the protocol's epoch loop (internal/protocol), one half
// each. The Source runs the source half over the framed wire as its channel;
// the Replica validates a whole frame before any model moves, routes its
// attributes to their cliques through a table built once, and runs the sink
// half with the frame as its channel. The report search is read-only and
// runs on the source alone, so both replicas mutate only through the loop's
// predict and commit on identical inputs — internal/oracle holds the frames
// and the sink's answers to a textbook reference.
package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"ken/internal/cliques"
	"ken/internal/gauss"
	"ken/internal/model"
	"ken/internal/obs"
	"ken/internal/protocol"
	"ken/internal/wire"
)

// maxFrameBytes bounds a length-prefixed frame read (corruption guard).
const maxFrameBytes = 1 << 20

// Config assembles both endpoints; the two sides must be built with
// identical configurations (same training data, partition and bounds).
type Config struct {
	// Partition assigns attributes to cliques.
	Partition *cliques.Partition
	// Train is the shared training matrix.
	Train [][]float64
	// Eps are the per-attribute end-to-end error bounds.
	Eps []float64
	// FitCfg controls model learning.
	FitCfg model.FitConfig
	// HeartbeatEvery, when positive, makes the source transmit a
	// full-value heartbeat frame every so many steps (§6 robustness).
	HeartbeatEvery int
}

// build validates the config and fits one protocol kernel per clique. The
// wire quantum is min ε / 100 and the models run at the effective bound
// ε − quantum/2 (docs/PROTOCOL.md §5 says what that does and does not cover).
func build(cfg Config) (cl []*protocol.Kernel, roots []int, res float64, err error) {
	minEps := math.Inf(1)
	for i, e := range cfg.Eps {
		if e <= 0 {
			return nil, nil, 0, fmt.Errorf("stream: non-positive epsilon %v for attribute %d", e, i)
		}
		minEps = math.Min(minEps, e)
	}
	res = minEps / 100
	eff := make([]float64, len(cfg.Eps))
	for i, e := range cfg.Eps {
		eff[i] = e - res/2
	}
	cl, roots, err = cfg.Partition.Fit(cfg.Train, eff, func(cols [][]float64) (model.Model, error) {
		return model.FitLinearGaussian(cols, cfg.FitCfg)
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("stream: %w", err)
	}
	return cl, roots, res, nil
}

// Source is the sensor-network endpoint: it consumes ground-truth rows and
// emits wire frames. It is the protocol's epoch loop, source half only, over
// the framed wire as its channel.
type Source struct {
	loop *protocol.Loop
	ch   *framer
	step uint64

	// Observability handles (zero and no-op until Instrument is called).
	mFrames     obs.Counter // stream_frames_sent_total
	mValues     obs.Counter // stream_values_sent_total
	mHeartbeats obs.Counter // stream_heartbeats_sent_total
}

// framer is the wire channel: every root hears all its members, and a report
// is quantised in place onto the frame under construction, clique by clique
// — the reliable transport below delivers it whole to a sink this process
// never sees. Heartbeat epochs mark the frame.
type framer struct {
	protocol.Beat
	cl    []*protocol.Kernel // for each clique's global attributes
	res   float64
	frame wire.Frame
}

func (f *framer) Heartbeat() bool {
	hb := f.Beat.Heartbeat()
	if hb {
		f.frame.Special = wire.KindHeartbeat
	}
	return hb
}

func (f *framer) Collect(int, []float64) []int { return nil }

func (f *framer) Carry(ci int, idx []int, vals []float64, _ obs.Span) ([]int, []float64, []int) {
	for j, i := range idx {
		vals[j] = quantize(vals[j], f.res)
		f.frame.Attrs = append(f.frame.Attrs, f.cl[ci].Members()[i])
		f.frame.Values = append(f.frame.Values, vals[j])
	}
	return idx, vals, nil
}

// Instrument attaches metrics and protocol tracing to the source endpoint.
// A nil observer leaves it unobserved (the default).
func (s *Source) Instrument(ob *obs.Observer) {
	s.loop.Tracer = ob.Tracer()
	reg := ob.Registry()
	s.mFrames = reg.Counter("stream_frames_sent_total")
	s.mValues = reg.Counter("stream_values_sent_total")
	s.mHeartbeats = reg.Counter("stream_heartbeats_sent_total")
}

// NewSource builds the source endpoint.
func NewSource(cfg Config) (*Source, error) {
	cl, roots, res, err := build(cfg)
	if err != nil {
		return nil, err
	}
	ch := &framer{Beat: protocol.Beat{Every: cfg.HeartbeatEvery}, cl: cl, res: res}
	return &Source{ch: ch, loop: &protocol.Loop{
		Src: cl, Roots: roots, N: len(cfg.Eps), Channel: ch, Choose: (*protocol.Kernel).Choose,
	}}, nil
}

// quantize snaps v onto the wire grid.
func quantize(v, res float64) float64 {
	return math.Round(v/res) * res
}

// Collect advances one sampling step: runs the source protocol on the
// fresh readings and returns the frame to transmit (possibly with zero
// reports — the frame itself carries the step so the sink's clock stays
// aligned even without data). Attributes appear clique by clique in
// partition order, ascending within a clique; the source has conditioned on
// exactly the quantized values the frame carries. A reading that is NaN or
// ±Inf is rejected (wrapping gauss.ErrNotFinite) before anything moves.
// Untraced, an epoch allocates only the frame it hands back.
func (s *Source) Collect(truth []float64) (wire.Frame, error) {
	if err := s.loop.Check(truth); err != nil {
		return wire.Frame{}, fmt.Errorf("stream: %w", err)
	}
	sp := s.loop.Tracer.StartEpoch(obs.Event{Step: int64(s.step), Clique: -1, Node: -1, Detail: "stream"})
	s.ch.frame = wire.Frame{Step: s.step}
	if err := s.loop.SourceEpoch(int64(s.step), sp, truth); err != nil {
		return wire.Frame{}, err
	}
	frame := s.ch.frame
	s.mFrames.Inc()
	s.mValues.Add(int64(len(frame.Attrs)))
	if frame.Special == wire.KindHeartbeat {
		s.mHeartbeats.Inc()
	}
	if sp.Active() {
		sp.EndEpoch(obs.Event{Step: int64(s.step), Clique: -1, Node: -1, N: len(frame.Attrs),
			Payload: &obs.Payload{Bytes: obs.WireBytesPerValue * len(frame.Attrs)}})
	}
	s.step++
	return frame, nil
}

// Resolution returns the negotiated wire resolution.
func (s *Source) Resolution() float64 { return s.ch.res }

// Replica is the base-station endpoint: it applies frames and serves
// estimates. It is the protocol's epoch loop, sink half only, over the frame
// being applied as its channel; what is its own is the whole-frame
// validation, the attribute → clique route and the counts. Safe for
// concurrent Apply/Answer.
type Replica struct {
	mu   sync.Mutex
	loop *protocol.Loop
	ch   unframer
	res  float64
	// frames, values and heartbeats count what has been applied: frames,
	// the reported values they carried, and the heartbeat frames among them.
	frames, values, heartbeats int
	// route maps a global attribute to its clique and its index there.
	route []route
	// failed is the first refusal of a validated frame by a clique's model;
	// the replica has diverged from its source and refuses every later frame
	// with it.
	failed error
}

// route places one global attribute: clique index and local index within it.
type route struct{ clique, local int }

// report is one clique's observation pair, local indices ascending.
type report struct {
	idx  []int
	vals []float64
}

// unframer is the sink's channel: the frame being applied, split into each
// clique's share before the loop runs — ApplyObserved's scratch, guarded by
// the replica's mu. Carry hands a clique its share and, when measuring,
// scores it against the sink's prediction: st is the frame's ApplyStats,
// held by value so the caller's record does not escape.
type unframer struct {
	sink    []*protocol.Kernel // the loop's Sink, whose predictions Carry scores
	eps     []float64          // end-to-end per-attribute bounds (from the config)
	reports []report
	measure bool
	st      ApplyStats
}

// copyTo hands the frame's record to ApplyObserved's caller.
func (u *unframer) copyTo(st *ApplyStats) { *st = u.st }

// Heartbeat is the frame's kind.
func (u *unframer) Heartbeat() bool { return u.st.Heartbeat }

func (u *unframer) Collect(int, []float64) []int { return nil }

func (u *unframer) Carry(ci int, _ []int, _ []float64, _ obs.Span) ([]int, []float64, []int) {
	o := &u.reports[ci]
	if u.measure && len(o.idx) > 0 {
		mean, members := u.sink[ci].Mean(), u.sink[ci].Members()
		// Locals: a store into u.st per value would make every iteration
		// reload the slices it reads.
		devs, maxDev := u.st.Deviations, u.st.MaxDevEps
		for j, i := range o.idx {
			dev := math.Abs(mean[i]-o.vals[j]) / u.eps[members[i]]
			if dev > 1 {
				devs++
			}
			if dev > maxDev {
				maxDev = dev
			}
		}
		u.st.Deviations, u.st.MaxDevEps = devs, maxDev
	}
	return o.idx, o.vals, nil
}

// NewReplica builds the sink endpoint.
func NewReplica(cfg Config) (*Replica, error) {
	cl, _, res, err := build(cfg)
	if err != nil {
		return nil, err
	}
	r := &Replica{res: res, route: make([]route, len(cfg.Eps))}
	r.ch = unframer{sink: cl, eps: append([]float64(nil), cfg.Eps...), reports: make([]report, len(cl))}
	r.loop = &protocol.Loop{Sink: cl, N: len(cfg.Eps), Channel: &r.ch}
	for ci, c := range cl {
		for li, g := range c.Members() {
			r.route[g] = route{ci, li}
		}
		r.ch.reports[ci] = report{make([]int, 0, c.Dim()), make([]float64, 0, c.Dim())}
	}
	return r, nil
}

// Resolution returns the negotiated wire resolution.
func (r *Replica) Resolution() float64 { return r.res }

// ApplyStats reports what one frame did to the replica, measured against
// the pre-apply predictions — the raw material of the live ε audit
// (internal/slo). A reported value whose prediction was off by more than
// its end-to-end ε is a deviation: expected for report frames (a report
// exists because the source's lock-step prediction missed), suspicious
// for heartbeat values the protocol promises the replica already tracks.
type ApplyStats struct {
	// Step is the applied frame's protocol step.
	Step uint64
	// Values counts the reported values the frame carried.
	Values int
	// Heartbeat marks a full-value heartbeat frame.
	Heartbeat bool
	// Deviations counts reported values whose pre-apply prediction
	// missed the attribute's end-to-end ε.
	Deviations int
	// MaxDevEps is the largest |prediction − value| / ε over the frame's
	// reported values (0 when none).
	MaxDevEps float64
}

// Apply folds one frame into the replica. Frames must arrive in step
// order; a gap means lost frames and is an error (the transport below is
// reliable — for lossy transports see core.LossyKen and simnet).
//
// The frame is not retained: its slices are read synchronously, so callers
// may reuse the frame's backing arrays for the next read (Serve does, via
// wire.DecodeInto). Frames apply without allocating.
func (r *Replica) Apply(f wire.Frame) error {
	return r.ApplyObserved(f, nil)
}

// ApplyObserved is Apply plus pre-apply deviation measurement into st
// (skipped when st is nil). The measurement reads each clique's predicted
// mean for the step before the frame's values are conditioned in, so it
// sees exactly what the replica would have answered had the frame never
// arrived — the live analogue of kenaudit's ε-bound check. st is fully
// overwritten; the measurement reuses the cliques' mean scratch and
// allocates nothing.
//
// The whole frame is validated before the first model moves: its step, one
// value per attribute, every attribute in range, every value finite
// (wrapping gauss.ErrNotFinite), and each clique's attributes strictly
// increasing in frame order — which both Collect's clique-major frames and
// wire's globally ascending ones satisfy, and duplicates and hand-built
// unsorted frames do not. A rejected frame leaves the replica exactly as it
// was. A validated frame is applied by the loop's sink half; should a
// clique's model refuse it all the same, the cliques before it have moved
// and the replica fails closed: it returns that error for this frame and
// every later one, and its counts stay where they were.
func (r *Replica) ApplyObserved(f wire.Frame, st *ApplyStats) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ch.st = ApplyStats{Step: f.Step, Values: len(f.Attrs), Heartbeat: f.Special == wire.KindHeartbeat}
	r.ch.measure = st != nil
	if st != nil {
		defer r.ch.copyTo(st)
	}
	if r.failed != nil {
		return r.failed
	}
	if f.Step != uint64(r.frames) {
		return fmt.Errorf("stream: frame for step %d, expected %d", f.Step, r.frames)
	}
	if len(f.Values) != len(f.Attrs) {
		return fmt.Errorf("stream: frame has %d attributes, %d values", len(f.Attrs), len(f.Values))
	}
	for ci := range r.ch.reports {
		o := &r.ch.reports[ci]
		o.idx, o.vals = o.idx[:0], o.vals[:0]
	}
	for j, a := range f.Attrs {
		if a < 0 || a >= r.loop.N {
			return fmt.Errorf("stream: frame attribute %d out of range %d", a, r.loop.N)
		}
		if v := f.Values[j]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: %w: frame value %v for attribute %d", gauss.ErrNotFinite, v, a)
		}
		at := r.route[a]
		o := &r.ch.reports[at.clique]
		if m := len(o.idx); m > 0 && o.idx[m-1] >= at.local {
			return fmt.Errorf("stream: frame attribute %d repeated or out of order within its clique", a)
		}
		// Capacity is the clique size and local indices strictly increase,
		// so these appends never grow.
		o.idx = append(o.idx, at.local)
		o.vals = append(o.vals, f.Values[j])
	}
	if err := r.loop.SinkEpoch(int64(f.Step), obs.Span{}); err != nil {
		r.failed = fmt.Errorf("stream: replica failed at step %d and refuses further frames: %w", f.Step, err)
		return r.failed
	}
	r.frames++
	r.values += len(f.Attrs)
	if r.ch.st.Heartbeat {
		r.heartbeats++
	}
	return nil
}

// Answer is a self-consistent snapshot of the replica's live SELECT *
// answer: the estimates and the ±ε contract they were collected under,
// tagged with the number of frames folded in. The slices are copies — the
// caller may keep them across further Apply calls.
type Answer struct {
	// Step counts the frames applied when the snapshot was taken.
	Step int `json:"step"`
	// Estimates is the per-attribute answer vector.
	Estimates []float64 `json:"estimates"`
	// Eps is the per-attribute end-to-end error bound.
	Eps []float64 `json:"eps"`
	// Heartbeats counts heartbeat frames among the applied ones.
	Heartbeats int `json:"heartbeats"`
}

// Answer atomically snapshots the live answer with its bounds — the unit
// a concurrent query API serves while frames keep applying.
func (r *Replica) Answer() Answer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, r.loop.N)
	r.loop.Estimates(out)
	return Answer{
		Step:       r.frames,
		Estimates:  out,
		Eps:        append([]float64(nil), r.ch.eps...),
		Heartbeats: r.heartbeats,
	}
}

// Counts returns, from one snapshot, how many frames have been applied, the
// reported values they carried and the heartbeat frames among them.
func (r *Replica) Counts() (frames, values, heartbeats int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames, r.values, r.heartbeats
}

// writeRaw length-prefixes one encoded session-frame body and writes it
// with a single Write (see WriteFrameBuf for why one).
func writeRaw(w io.Writer, body []byte) error {
	buf := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	if _, err := w.Write(append(buf, body...)); err != nil {
		return fmt.Errorf("stream: write frame: %w", err)
	}
	return nil
}

// readRawInto reads one length-prefixed frame body into buf's backing array
// when its capacity suffices, allocating a larger one otherwise (nil is fine
// for a one-off read). The returned slice (resized to the frame) replaces buf
// for the next call. io.EOF at a frame boundary is returned as io.EOF; a
// partial frame is an unexpected-EOF error.
func readRawInto(rd io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("stream: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameBytes {
		return nil, fmt.Errorf("stream: frame of %d bytes exceeds limit", size)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(rd, buf); err != nil {
		return nil, fmt.Errorf("stream: read frame: %w", err)
	}
	return buf, nil
}

// WriteFrame length-prefixes and writes one encoded frame.
func WriteFrame(w io.Writer, f wire.Frame, res float64) error {
	_, err := WriteFrameBuf(w, f, res, nil)
	return err
}

// WriteFrameBuf is WriteFrame with a caller-owned buffer: the frame is
// encoded behind its length prefix in buf's backing array and leaves in one
// Write — on a TCP connection (Go sets TCP_NODELAY) every Write is a
// syscall and a segment, so header and body travel together. The (possibly
// grown) buffer is returned for the next call; a warmed one writes an
// ascending frame without allocating.
func WriteFrameBuf(w io.Writer, f wire.Frame, res float64, buf []byte) ([]byte, error) {
	buf, err := wire.AppendEncode(append(buf[:0], 0, 0, 0, 0), f, res)
	if err != nil {
		return buf, err
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	if _, err := w.Write(buf); err != nil {
		return buf, fmt.Errorf("stream: write frame: %w", err)
	}
	return buf, nil
}

// ReadBody reads one length-prefixed frame body off br into a new slice of
// exactly the body's size, undecoded — what a reader that queues frames
// for someone else to decode wants (internal/sinkd). The prefix is held to
// maxFrameBytes before anything is allocated. io.EOF at a frame boundary is
// returned as io.EOF; a partial frame is an unexpected-EOF error.
func ReadBody(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return nil, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("stream: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > maxFrameBytes {
		return nil, fmt.Errorf("stream: frame of %d bytes exceeds limit", size)
	}
	_, _ = br.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	body := make([]byte, size)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("stream: read frame: %w", err)
	}
	return body, nil
}

// ReadFrameBuf reads one length-prefixed frame through a caller-owned
// raw-body buffer (nil is fine for a one-off read): the frame body is read
// into buf's backing array when its capacity suffices, and the (possibly
// grown) buffer is returned for the next call. io.EOF at a frame boundary is
// returned as io.EOF; a partial frame is an unexpected-EOF error. The
// decoded frame's Attrs/Values are freshly allocated, so the frame may be
// retained or queued while buf is reused for further reads.
func ReadFrameBuf(rd io.Reader, res float64, buf []byte) (wire.Frame, []byte, error) {
	body, err := readRawInto(rd, buf)
	if err != nil {
		return wire.Frame{}, buf, err
	}
	f, err := wire.Decode(body, res)
	if err != nil {
		return wire.Frame{}, body, err
	}
	return f, body, nil
}

// Serve applies frames from the reader until EOF or error. It returns nil
// on clean EOF. The loop owns a persistent frame and body buffer, decoding
// each frame in place (wire.DecodeInto) before the synchronous Apply — so a
// steady-state stream of suppressed (empty) frames serves without
// allocating per frame.
func (r *Replica) Serve(rd io.Reader) error {
	var f wire.Frame
	var body []byte
	for {
		var err error
		body, err = readRawInto(rd, body)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := wire.DecodeInto(&f, body, r.res); err != nil {
			return err
		}
		if err := r.Apply(f); err != nil {
			return err
		}
	}
}

// Pump is the source-side send loop: one frame per row, collected and
// written to the sink in step order. each, when non-nil, sees every frame
// after it has been written (a reference replica to mirror into, a tally to
// keep); its error ends the pump. A write error mid-stream is usually the
// sink shedding the session, so the typed REJECT waiting on the connection,
// if there is one, is returned in its place.
func (s *Source) Pump(conn net.Conn, rows [][]float64, each func(wire.Frame) error) error {
	var buf []byte // one encode buffer for the whole session
	for _, row := range rows {
		f, err := s.Collect(row)
		if err != nil {
			return err
		}
		if buf, err = WriteFrameBuf(conn, f, s.ch.res, buf); err != nil {
			if rej := pendingReject(conn); rej != nil {
				return fmt.Errorf("stream: sink dropped the session: %w", rej)
			}
			return err
		}
		if each != nil {
			if err := each(f); err != nil {
				return err
			}
		}
	}
	return nil
}
