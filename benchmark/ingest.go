package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ken/internal/deploy"
	"ken/internal/stream"
	"ken/internal/wire"
)

// The ingest workloads drive a real kensinkd child over its two public
// surfaces: the session protocol (HELLO + length-prefixed report frames on
// TCP) and the /v1 HTTP API. Frames are collected and encoded during
// set-up, so the timed portion moves bytes and asks questions, nothing else.

// tenantLoad is one tenant's pre-encoded report stream.
type tenantLoad struct {
	Dep     *deploy.Deployment
	Blob    []byte // every frame, length-prefixed, back to back
	Offsets []int  // frame i is Blob[Offsets[i]:Offsets[i+1]]
	Values  int64  // values the frames carry

	Resolution float64 // the wire quantum the frames were encoded at
}

func (l *tenantLoad) frames() int { return len(l.Offsets) - 1 }

// buildTenantLoad builds the lab-k2 deployment for seed and runs its source
// over the test rows, keeping the encoded frames.
func buildTenantLoad(seed int64, frames int) (*tenantLoad, error) {
	dep, err := deploy.Build(labParams(seed, 2, frames))
	if err != nil {
		return nil, err
	}
	src, err := stream.NewSource(dep.Config)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	l := &tenantLoad{Dep: dep, Offsets: make([]int, 0, frames+1), Resolution: src.Resolution()}
	for _, row := range dep.Test {
		f, err := src.Collect(row)
		if err != nil {
			return nil, err
		}
		l.Offsets = append(l.Offsets, buf.Len())
		if err := stream.WriteFrame(&buf, f, src.Resolution()); err != nil {
			return nil, err
		}
		l.Values += int64(len(f.Attrs))
	}
	l.Offsets = append(l.Offsets, buf.Len())
	l.Blob = buf.Bytes()
	return l, nil
}

// referenceAnswer feeds the very bytes the tenant sends to a local replica
// and returns its final answer — what the daemon must reproduce bit for bit.
func (l *tenantLoad) referenceAnswer() (stream.Answer, error) {
	rep, err := stream.NewReplica(l.Dep.Config)
	if err != nil {
		return stream.Answer{}, err
	}
	rd := bytes.NewReader(l.Blob)
	var body []byte
	for {
		var f wire.Frame
		f, body, err = stream.ReadFrameBuf(rd, rep.Resolution(), body)
		if err == io.EOF {
			return rep.Answer(), nil
		}
		if err == nil {
			err = rep.ApplyObserved(f, nil)
		}
		if err != nil {
			return stream.Answer{}, err
		}
	}
}

// openSession dials the daemon and completes the handshake for tenant.
func openSession(d *daemon, tenant string, p deploy.Params) (net.Conn, time.Duration, error) {
	start := time.Now()
	conn, err := net.Dial("tcp", d.Session)
	if err != nil {
		return nil, 0, err
	}
	if _, err := stream.Handshake(conn, wire.Hello{Tenant: tenant, Spec: p.EncodeSpec()}); err != nil {
		_ = conn.Close() // the handshake error is the one to report
		return nil, 0, fmt.Errorf("tenant %s: %w", tenant, err)
	}
	return conn, time.Since(start), nil
}

// queryAnswer is the part of a /v1/query response the benchmark reads.
type queryAnswer struct {
	Answer struct {
		Step      int       `json:"step"`
		Estimates []float64 `json:"estimates"`
	} `json:"answer"`
}

// getJSON fetches url on the client's kept-alive connection and decodes a
// 200 response into v; any other status is an error.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // a read-only body; its close error carries nothing
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

func queryURL(d *daemon, tenant string) string { return d.HTTP + "/v1/query?tenant=" + tenant }

// aggURL asks for the all-attribute average beside the snapshot.
func aggURL(d *daemon, tenant string) string {
	attrs := make([]string, labNodes)
	for i := range attrs {
		attrs[i] = strconv.Itoa(i)
	}
	return queryURL(d, tenant) + "&agg=avg&attrs=" + strings.Join(attrs, ",")
}

// checkFinalAnswer holds the daemon's final answer against the reference
// replica (bit-identical) and the last truth row (within ε plus the wire
// quantum, see missesTruth) — kenswarm's -verify rule.
func checkFinalAnswer(got queryAnswer, want stream.Answer, truth []float64, quantum float64) error {
	if got.Answer.Step != want.Step {
		return fmt.Errorf("daemon applied %d frames, reference %d", got.Answer.Step, want.Step)
	}
	if len(got.Answer.Estimates) != len(want.Estimates) {
		return fmt.Errorf("answer has %d estimates, reference %d", len(got.Answer.Estimates), len(want.Estimates))
	}
	for i, v := range got.Answer.Estimates {
		if math.Float64bits(v) != math.Float64bits(want.Estimates[i]) {
			return fmt.Errorf("attribute %d: daemon answers %v, reference %v", i, v, want.Estimates[i])
		}
		if math.Abs(v-truth[i]) > want.Eps[i]+quantum {
			return fmt.Errorf("attribute %d: answer %v misses truth %v by more than ε", i, v, truth[i])
		}
	}
	return nil
}

// ---- ingest-paced ----

// dueAt is when frame i of an open loop at rate frames per second is due,
// measured from the loop's start.
func dueAt(i, rate int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(rate))
}

// dueCount is how many of n frames are due by elapsed.
func dueCount(elapsed time.Duration, rate, n int) int {
	return min(n, int(int64(elapsed)*int64(rate)/int64(time.Second))+1)
}

// probe is one prober round trip, timed from the loop's start.
type probe struct {
	Sent, Recv time.Duration
	Step       int  // answer.step of the response
	Agg        bool // the aggregate form of the query
	OK         bool // a 200 with a decodable body
}

// answeredAt returns, per frame, when it was first answered: the receive
// time of the first successful probe whose step exceeds the frame's index,
// or -1 if no probe ever showed it.
func answeredAt(n int, probes []probe) []time.Duration {
	at := make([]time.Duration, n)
	next := 0
	for _, p := range probes {
		if !p.OK {
			continue
		}
		for next < n && next < p.Step {
			at[next] = p.Recv
			next++
		}
	}
	for ; next < n; next++ {
		at[next] = -1
	}
	return at
}

// pacedLog is everything one paced run recorded.
type pacedLog struct {
	Rate     int
	Written  []time.Duration // per frame: when its bytes had been written
	Probes   []probe
	Wall     time.Duration // start → last frame answered (or the deadline)
	MaxQueue float64       // largest queue_depth seen in /v1/slo (traced pass)
	SendErr  error
}

// sloStatus is the part of a /v1/slo response the benchmark reads.
type sloStatus struct {
	Window struct {
		LatencyP50 float64 `json:"latency_p50_seconds"`
		LatencyP99 float64 `json:"latency_p99_seconds"`
		QueueDepth float64 `json:"queue_depth"`
		TotalSheds float64 `json:"total_sheds"`
	} `json:"window"`
}

const sloEvery = 200 // in the traced pass, every so many probes one asks /v1/slo

// runPaced writes the load's frames [from, from+n) to conn, each at its due
// time, while a prober asks the daemon for the tenant's answer in a closed
// loop on one kept-alive connection.
func runPaced(d *daemon, conn net.Conn, tenant string, load *tenantLoad, from, n, rate int, traced bool) *pacedLog {
	log := &pacedLog{Rate: rate, Written: make([]time.Duration, n)}
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	urls := [2]string{queryURL(d, tenant), aggURL(d, tenant)}
	target := from + n
	start := time.Now()
	sent := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open loop: the sender never waits for the daemon
		defer wg.Done()
		defer close(sent)
		for i := 0; i < n; {
			now := time.Since(start)
			j := dueCount(now, rate, n)
			if j <= i {
				time.Sleep(dueAt(i, rate) - now)
				continue
			}
			// Frames already due go out in one write; nothing is sent early.
			if _, err := conn.Write(load.Blob[load.Offsets[from+i]:load.Offsets[from+j]]); err != nil {
				log.SendErr = err
				return
			}
			w := time.Since(start)
			for ; i < j; i++ {
				log.Written[i] = w
			}
		}
	}()
	go func() { // closed loop: the prober's next question waits for the last answer
		defer wg.Done()
		deadline := time.Duration(0)
		for k := 0; ; k++ {
			if traced && k%sloEvery == sloEvery-1 {
				var st sloStatus
				if getJSON(client, d.HTTP+"/v1/slo?tenant="+tenant, &st) == nil {
					log.MaxQueue = math.Max(log.MaxQueue, st.Window.QueueDepth)
				}
				continue
			}
			var qa queryAnswer
			p := probe{Sent: time.Since(start), Agg: k%2 == 1}
			err := getJSON(client, urls[k%2], &qa)
			p.Recv = time.Since(start)
			p.OK, p.Step = err == nil, qa.Answer.Step
			log.Probes = append(log.Probes, p)
			log.Wall = p.Recv
			if p.OK && p.Step >= target {
				return
			}
			// Once everything is written the daemon gets two more seconds to
			// show it; frames still unanswered then count as failed.
			select {
			case <-sent:
				if deadline == 0 {
					deadline = p.Recv + 2*time.Second
				}
				if p.Recv > deadline {
					return
				}
			default:
			}
		}
	}()
	wg.Wait()
	// Probe steps count the tenant's frames from its first; rebase them on
	// this run's first frame.
	for i := range log.Probes {
		log.Probes[i].Step -= from
	}
	return log
}

// pacedSetup is the paced workload's set-up: the tenant's frames, the
// daemon, and the session (whose handshake has the daemon build the
// deployment).
type pacedSetup struct {
	Load *tenantLoad
	D    *daemon
	Conn net.Conn
	Cold time.Duration
}

const pacedTenant = "paced"

func newPacedSetup(c *runCtx, frames int) (*pacedSetup, error) {
	load, err := buildTenantLoad(c.Seed, frames)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(c)
	if err != nil {
		return nil, err
	}
	conn, cold, err := openSession(d, pacedTenant, load.Dep.Params)
	if err != nil {
		d.stop()
		return nil, err
	}
	return &pacedSetup{Load: load, D: d, Conn: conn, Cold: cold}, nil
}

func (s *pacedSetup) close() {
	_ = s.Conn.Close() // the daemon is stopped next; a close error changes nothing
	s.D.stop()
}

func runIngestPaced(c *runCtx) (*measurement, error) {
	rate := c.Sizes.PacedRate
	untraced := int(c.Sizes.Seconds * float64(rate))
	traced := 0
	if c.Trace {
		untraced /= 2
		traced = untraced
	}
	m := newMeasurement("frame")
	var s *pacedSetup
	for i := 0; i < c.setups(); i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = newPacedSetup(c, untraced+traced); err != nil {
			return nil, err
		}
		m.Setups = append(m.Setups, time.Since(start).Seconds())
	}
	defer s.close()
	load, d := s.Load, s.D

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	log := runPaced(d, s.Conn, pacedTenant, load, 0, untraced, rate, false)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	lat := pacedLatencies(log, untraced, m)
	// One repetition per second of due times (a shorter run is a single
	// one): its median ingest-to-answer latency, and its frames over the
	// time from its first due time to its last answer.
	window := rate
	if untraced < window {
		window = untraced
	}
	for from := 0; from+window <= untraced; from += window {
		answered := answeredOnly(lat[from : from+window])
		if len(answered) == 0 {
			continue // counted as failed frames above
		}
		var last float64 // ms after the window's first due time
		for i, l := range lat[from : from+window] {
			if l >= 0 {
				last = math.Max(last, float64(dueAt(from+i, rate)-dueAt(from, rate))/1e6+l)
			}
		}
		m.Throughput = append(m.Throughput, float64(len(answered))/(last/1e3))
		m.LatencyP50 = append(m.LatencyP50, percentile(sorted(answered), 0.5))
	}
	m.CPUPerUnit = []float64{(cpu1 - cpu0) * 1e6 / float64(untraced)}
	pacedDetail(log, lat, m)

	if c.Trace {
		cpu0 = cpu1
		tracedLog := runPaced(d, s.Conn, pacedTenant, load, untraced, traced, rate, true)
		if cpu1, err = d.cpuSeconds(); err != nil {
			return nil, err
		}
		tracedLat := pacedLatencies(tracedLog, traced, m)
		if err := pacedLayers(c, s, tracedLog, tracedLat, (cpu1-cpu0)*1e3/(float64(traced)/1e3), log.Wall.Seconds()/float64(untraced), m); err != nil {
			return nil, err
		}
	}

	// The daemon's final answer against a local replica fed the same bytes.
	want, err := load.referenceAnswer()
	if err != nil {
		return nil, err
	}
	var final queryAnswer
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	m.Attempted++
	if err := getJSON(client, queryURL(d, pacedTenant), &final); err != nil {
		m.fail(1, "final query: %v", err)
	} else if err := checkFinalAnswer(final, want, load.Dep.Test[load.frames()-1], load.Resolution); err != nil {
		m.fail(1, "tenant %s: %v", pacedTenant, err)
	}
	m.ReportedFrac = float64(load.Values) / float64(load.frames()*labNodes)
	m.Detail["reported_frac"] = m.ReportedFrac
	m.Detail["wire_bytes_per_epoch"] = float64(len(load.Blob)) / float64(load.frames())
	m.PeakRSSMB = d.peakRSSMB()
	return m, nil
}

// pacedLatencies matches frames to probes, counts the run's operations and
// failures into m, and returns each frame's ingest-to-answer latency in ms
// from its due time (-1 for a frame never answered).
func pacedLatencies(log *pacedLog, n int, m *measurement) []float64 {
	at := answeredAt(n, log.Probes)
	lat := make([]float64, n)
	unanswered := int64(0)
	for i, t := range at {
		if t < 0 {
			lat[i] = -1
			unanswered++
			continue
		}
		lat[i] = float64(t-dueAt(i, log.Rate)) / 1e6
	}
	badProbes := int64(0)
	for _, p := range log.Probes {
		if !p.OK {
			badProbes++
		}
	}
	m.Attempted += int64(n) + int64(len(log.Probes))
	if unanswered > 0 {
		m.fail(unanswered, "%d of %d frames were never answered (shed, rejected or lost; send error: %v)", unanswered, n, log.SendErr)
	}
	if badProbes > 0 {
		m.fail(badProbes, "%d of %d queries did not return 200", badProbes, len(log.Probes))
	}
	return lat
}

// probeRTTs returns the successful probes' round trips in ms, split by form.
func probeRTTs(probes []probe) (all, snapshot, agg []float64) {
	for _, p := range probes {
		if !p.OK {
			continue
		}
		rtt := float64(p.Recv-p.Sent) / 1e6
		all = append(all, rtt)
		if p.Agg {
			agg = append(agg, rtt)
		} else {
			snapshot = append(snapshot, rtt)
		}
	}
	return all, snapshot, agg
}

func answeredOnly(lat []float64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, l := range lat {
		if l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// pacedDetail records the run's numbers under the issue's names.
func pacedDetail(log *pacedLog, lat []float64, m *measurement) {
	answered := answeredOnly(lat)
	rtt, _, _ := probeRTTs(log.Probes)
	m.Detail["ingest_to_answer_ms_p50"] = tail(answered, 0.5)
	m.Detail["ingest_to_answer_ms_p95"] = tail(answered, 0.95)
	m.Detail["query_ms_p50"] = tail(rtt, 0.5)
	m.Detail["query_ms_p99"] = tail(rtt, 0.99)
	m.Detail["frames"] = float64(len(lat))
	m.Detail["probes"] = float64(len(log.Probes))
}

// pacedLayers derives the per-layer metrics, spans and budget of the traced
// paced pass.
func pacedLayers(c *runCtx, s *pacedSetup, log *pacedLog, lat []float64, cpuMSPerKFrame, untracedWallPerFrame float64, m *measurement) error {
	d := s.D
	n := len(lat)
	answered := answeredOnly(lat)
	rtt, snapshot, agg := probeRTTs(log.Probes)
	lateness := make([]float64, n)
	for i := range lateness {
		lateness[i] = float64(log.Written[i]-dueAt(i, log.Rate)) / 1e6
	}
	m.Layers["sinkd.session_open_cold_ms"] = float64(s.Cold) / 1e6
	warm, warmTime, err := openSession(d, pacedTenant+"-warm", s.Load.Dep.Params)
	if err != nil {
		return err
	}
	_ = warm.Close() // an empty session; the daemon sees EOF and closes the tenant
	m.Layers["sinkd.session_open_warm_ms"] = float64(warmTime) / 1e6
	m.Layers["sinkd.query_ms_p50"] = tail(rtt, 0.5)
	m.Layers["sinkd.query_ms_p99"] = tail(rtt, 0.99)
	m.Layers["sinkd.query_snapshot_ms_p50"] = tail(snapshot, 0.5)
	m.Layers["sinkd.query_snapshot_ms_p99"] = tail(snapshot, 0.99)
	m.Layers["sinkd.query_agg_ms_p50"] = tail(agg, 0.5)
	m.Layers["sinkd.query_agg_ms_p99"] = tail(agg, 0.99)
	m.Layers["sinkd.ingest_to_answer_ms_p95"] = tail(answered, 0.95)
	m.Layers["sinkd.ingest_to_answer_ms_p99"] = tail(answered, 0.99)
	m.Layers["sinkd.cpu_ms_per_kframe"] = cpuMSPerKFrame
	m.Layers["sinkd.rss_mb"] = d.peakRSSMB()
	m.Layers["loadgen.lateness_ms_p50"] = tail(lateness, 0.5)
	m.Layers["loadgen.lateness_ms_p99"] = tail(lateness, 0.99)
	m.Layers["loadgen.lateness_ms_max"] = percentile(sorted(lateness), 1)
	m.Layers["loadgen.probes"] = float64(len(log.Probes))
	m.Layers["trace.overhead_frac"] = log.Wall.Seconds()/float64(n)/untracedWallPerFrame - 1

	// The daemon's own view: its SLO window and metrics snapshot.
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	var slo sloStatus
	if err := getJSON(client, d.HTTP+"/v1/slo?tenant="+pacedTenant, &slo); err != nil {
		return err
	}
	var metrics struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := getJSON(client, d.HTTP+"/v1/metrics", &metrics); err != nil {
		return err
	}
	m.Layers["sinkd.ingest_to_apply_ms_p50"] = slo.Window.LatencyP50 * 1e3
	m.Layers["sinkd.ingest_to_apply_ms_p99"] = slo.Window.LatencyP99 * 1e3
	m.Layers["sinkd.queue_depth_max"] = math.Max(log.MaxQueue, slo.Window.QueueDepth)
	m.Layers["sinkd.sheds"] = slo.Window.TotalSheds

	if !c.WriteTrace {
		return nil
	}
	at := answeredAt(n, log.Probes)
	rec := newRecorder(2*n + len(log.Probes))
	origin := rec.origin
	for i := 0; i < n; i++ {
		due := origin.Add(dueAt(i, log.Rate))
		if at[i] >= 0 {
			rec.add("sinkd.answer_visible", int64(i), "", due, origin.Add(at[i]))
		}
		rec.add("loadgen.send", int64(i), "sinkd.answer_visible", due, origin.Add(log.Written[i]))
	}
	for k, p := range log.Probes {
		rec.add("sinkd.query", int64(k), "", origin.Add(p.Sent), origin.Add(p.Recv))
	}
	for name, v := range metrics.Counters {
		rec.counts["metrics."+name] = v
	}
	rec.counts["slo.latency_p50_seconds"] = slo.Window.LatencyP50
	rec.counts["slo.latency_p99_seconds"] = slo.Window.LatencyP99
	rec.counts["slo.queue_depth"] = slo.Window.QueueDepth
	rec.counts["slo.total_sheds"] = slo.Window.TotalSheds
	if err := rec.write(c.tracePath()); err != nil {
		return err
	}
	// Where an answered frame's due → visible interval goes: waiting to be
	// written, inside the daemon until applied (its own median), and — the
	// remainder — waiting for the next probe to come back with it.
	total := mean(answered) * 1e3
	m.Budgets = []budget{{Title: "ingest to answer", Unit: "answered frame", Total: total, Rows: shares(total, []budgetRow{
		{"generator: due → written", math.Max(0, mean(lateness)) * 1e3},
		{"daemon: read → applied (its /v1/slo median)", slo.Window.LatencyP50 * 1e6},
		{"probe: half a query round trip", tail(rtt, 0.5) * 1e3 / 2},
	})}}
	return nil
}

// ---- ingest-flood ----

const floodChunk = 64 << 10

// floodRep is one flood repetition's outcome.
type floodRep struct {
	Wall     time.Duration // first write → every tenant drained
	Drained  []float64     // per tenant: ms from the first write until all its frames were answered
	CPU      float64       // daemon CPU seconds over that interval
	Chunks   []timed       // one per 64 KiB write, from the repetition's start
	Polls    []timed       // one per drain poll
	Failures []string
}

// timed is an interval measured from a repetition's start.
type timed struct{ From, To time.Duration }

// pollMS returns the drain polls' round trips in ms.
func (r *floodRep) pollMS() []float64 {
	out := make([]float64, len(r.Polls))
	for i, p := range r.Polls {
		out[i] = float64(p.To-p.From) / 1e6
	}
	return out
}

// floodOnce opens a fresh session per load, writes every load's frames
// back to back in 64 KiB chunks from one goroutine each, then polls
// /v1/query every millisecond until each tenant shows all its frames.
func floodOnce(d *daemon, loads []*tenantLoad, want []stream.Answer, prefix string) (floodRep, error) {
	var rep floodRep
	conns := make([]net.Conn, len(loads))
	names := make([]string, len(loads))
	defer func() {
		for _, conn := range conns {
			if conn != nil {
				_ = conn.Close() // the daemon sees EOF; nothing to do about a close error
			}
		}
	}()
	for i, l := range loads {
		names[i] = fmt.Sprintf("%s-t%d", prefix, i)
		conn, _, err := openSession(d, names[i], l.Dep.Params)
		if err != nil {
			return rep, err
		}
		conns[i] = conn
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return rep, err
	}
	start := time.Now()
	errs := make([]error, len(loads))
	chunks := make([][]timed, len(loads))
	var wg sync.WaitGroup
	for i, l := range loads {
		wg.Add(1)
		go func(i int, l *tenantLoad) {
			defer wg.Done()
			for off := 0; off < len(l.Blob) && errs[i] == nil; off += floodChunk {
				from := time.Since(start)
				_, errs[i] = conns[i].Write(l.Blob[off:min(off+floodChunk, len(l.Blob))])
				chunks[i] = append(chunks[i], timed{from, time.Since(start)})
			}
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		rep.Chunks = append(rep.Chunks, chunks[i]...)
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("tenant %s: write: %v", names[i], err))
		}
	}
	client := keepAliveClient()
	defer client.CloseIdleConnections()
	drained := make([]bool, len(loads))
	left := len(loads)
	for left > 0 && time.Since(start) < 30*time.Second {
		for i, l := range loads {
			if drained[i] {
				continue
			}
			var qa queryAnswer
			from := time.Since(start)
			err := getJSON(client, queryURL(d, names[i]), &qa)
			rep.Polls = append(rep.Polls, timed{from, time.Since(start)})
			if err != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf("tenant %s: %v", names[i], err))
				drained[i] = true
				left--
				continue
			}
			if qa.Answer.Step >= l.frames() {
				rep.Wall = time.Since(start)
				rep.Drained = append(rep.Drained, float64(rep.Wall)/1e6)
				drained[i] = true
				left--
				if err := checkFinalAnswer(qa, want[i], l.Dep.Test[l.frames()-1], l.Resolution); err != nil {
					rep.Failures = append(rep.Failures, fmt.Sprintf("tenant %s: %v", names[i], err))
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	if left > 0 {
		rep.Wall = time.Since(start)
		rep.Failures = append(rep.Failures, fmt.Sprintf("%d tenants had not drained after 30 s", left))
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return rep, err
	}
	rep.CPU = cpu1 - cpu0
	return rep, nil
}

// floodSetup builds both tenants' loads (one goroutine each), starts a
// daemon whose frame budget holds a whole tenant so nothing is shed by
// design, and opens one session per spec so the daemon has built both
// deployments before the clock starts.
func floodSetup(c *runCtx) ([]*tenantLoad, *daemon, error) {
	frames := c.Sizes.FloodFrames
	loads := make([]*tenantLoad, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range loads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loads[i], errs[i] = buildTenantLoad(c.Seed+int64(i), frames)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	d, err := startDaemon(c, "-frame-budget", strconv.Itoa(frames))
	if err != nil {
		return nil, nil, err
	}
	for i, l := range loads {
		conn, _, err := openSession(d, fmt.Sprintf("flood-warm-t%d", i), l.Dep.Params)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		_ = conn.Close() // an empty session; the daemon sees EOF and closes the tenant
	}
	return loads, d, nil
}

func runIngestFlood(c *runCtx) (*measurement, error) {
	m := newMeasurement("frame")
	var loads []*tenantLoad
	var d *daemon
	for i := 0; i < c.setups(); i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if loads, d, err = floodSetup(c); err != nil {
			return nil, err
		}
		m.Setups = append(m.Setups, time.Since(start).Seconds())
	}
	defer d.stop()
	want := make([]stream.Answer, len(loads))
	var frames, values, wireBytes int64
	for i, l := range loads {
		var err error
		if want[i], err = l.referenceAnswer(); err != nil {
			return nil, err
		}
		frames += int64(l.frames())
		values += l.Values
		wireBytes += int64(len(l.Blob))
	}

	budgetSeconds := c.Sizes.Seconds
	if c.Trace {
		budgetSeconds /= 2
	}
	var walls, polls []float64
	start := time.Now()
	rep := 0
	for ; rep < c.Sizes.MinReps || time.Since(start).Seconds() < budgetSeconds; rep++ {
		r, err := floodOnce(d, loads, want, fmt.Sprintf("flood-r%d", rep))
		if err != nil {
			return nil, err
		}
		m.Attempted += frames
		for _, f := range r.Failures {
			// A tenant that failed its check answered none of its frames.
			m.fail(frames/int64(len(loads)), "repetition %d: %s", rep, f)
		}
		walls = append(walls, r.Wall.Seconds())
		m.Throughput = append(m.Throughput, float64(frames)/r.Wall.Seconds())
		m.LatencyP50 = append(m.LatencyP50, median(r.Drained))
		m.CPUPerUnit = append(m.CPUPerUnit, r.CPU*1e6/float64(frames))
		polls = append(polls, r.pollMS()...)
		if rep == c.Sizes.MinReps-1 {
			// Every session leaves its tenant registered in the daemon, so
			// its memory grows with the repetition count; read the peak at
			// the count every run reaches.
			m.PeakRSSMB = d.peakRSSMB()
		}
	}
	m.ReportedFrac = float64(values) / float64(frames*labNodes)
	m.Detail["ingest_frames_per_s"] = median(m.Throughput)
	m.Detail["sinkd_cpu_ms_per_kframe"] = median(m.CPUPerUnit)
	m.Detail["reported_frac"] = m.ReportedFrac
	m.Detail["wire_bytes_per_epoch"] = float64(wireBytes) / float64(frames)
	m.Detail["repetitions"] = float64(rep)
	m.Detail["drain_poll_ms_p50"] = tail(polls, 0.5)

	if c.Trace {
		// Traced pass: one more two-tenant flood whose chunks and polls are
		// kept as spans, then one tenant alone — two tenants ÷ one tenant is
		// the headroom parallel apply has.
		r, err := floodOnce(d, loads, want, "flood-traced")
		if err != nil {
			return nil, err
		}
		m.Attempted += frames
		for _, f := range r.Failures {
			m.fail(frames/int64(len(loads)), "traced repetition: %s", f)
		}
		one, err := floodOnce(d, loads[:1], want[:1], "flood-single")
		if err != nil {
			return nil, err
		}
		m.Attempted += int64(loads[0].frames())
		for _, f := range one.Failures {
			m.fail(int64(loads[0].frames()), "single-tenant repetition: %s", f)
		}
		m.Layers["sinkd.drain_frames_per_s_1t"] = float64(loads[0].frames()) / one.Wall.Seconds()
		m.Layers["trace.overhead_frac"] = r.Wall.Seconds()/median(walls) - 1
		if c.WriteTrace {
			rec := newRecorder(len(r.Chunks) + len(r.Polls) + 1)
			rec.add("sinkd.drain", 0, "", rec.origin, rec.origin.Add(r.Wall))
			for k, ch := range r.Chunks {
				rec.add("loadgen.send", int64(k), "", rec.origin.Add(ch.From), rec.origin.Add(ch.To))
			}
			for k, p := range r.Polls {
				rec.add("sinkd.query", int64(k), "", rec.origin.Add(p.From), rec.origin.Add(p.To))
			}
			rec.counts["frames"] = float64(frames)
			rec.counts["daemon_cpu_seconds"] = r.CPU
			rec.counts["drain_frames_per_s_2t"] = float64(frames) / r.Wall.Seconds()
			rec.counts["drain_frames_per_s_1t"] = m.Layers["sinkd.drain_frames_per_s_1t"]
			if err := rec.write(c.tracePath()); err != nil {
				return nil, err
			}
		}
		cpuShare := 100 * r.CPU / (r.Wall.Seconds() * 2) // of the two cores the daemon can use
		cpuShare = math.Min(cpuShare, 100)
		m.Budgets = []budget{{Title: "flood drain", Unit: "frame (two tenants)", Total: r.Wall.Seconds() * 1e6 / float64(frames), Rows: []budgetRow{
			{"daemon on CPU (of 2 cores)", cpuShare},
			{"daemon idle or waiting", 100 - cpuShare},
		}}}
	}
	return m, nil
}
