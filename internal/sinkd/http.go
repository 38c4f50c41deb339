// The daemon's HTTP query API. Read-only JSON endpoints over the live
// replicas and the live SLO monitor:
//
//	GET /v1/tenants                  — every tenant with state and spec
//	GET /v1/query?tenant=T           — T's live SELECT * answer (±ε)
//	GET /v1/query?tenant=T&agg=avg   — internal/query aggregate over the
//	     [&attrs=0,3,7]                 snapshot, with its derived bound
//	GET /v1/metrics                  — daemon-wide sinkd_* counters
//	GET /v1/metrics?tenant=T         — T's per-tenant stream_* metrics
//	GET /v1/health                   — readiness: per-tenant health states
//	                                   (503 when any tenant is unhealthy)
//	GET /v1/slo?tenant=T             — T's windowed SLO numbers
//
// Answers come from stream.Replica.Answer, a mutex-held snapshot, so
// queries are safe (and meaningful) while frames keep applying. Every
// request is wrapped in withRequestLog: one structured slog line plus the
// sinkd_http_requests_total / sinkd_http_request_seconds series.
package sinkd

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ken/internal/query"
	"ken/internal/stream"
)

// QueryResponse is the /v1/query payload.
type QueryResponse struct {
	Tenant string        `json:"tenant"`
	State  TenantState   `json:"state"`
	Answer stream.Answer `json:"answer"`
	// Aggregate is present when agg= was given.
	Aggregate *AggregateResponse `json:"aggregate,omitempty"`
}

// AggregateResponse is the agg= portion of a /v1/query payload.
type AggregateResponse struct {
	Agg   string  `json:"agg"`
	Attrs []int   `json:"attrs"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	Count int     `json:"count"`
}

// Handler returns the /v1 query API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants", d.handleTenants)
	mux.HandleFunc("GET /v1/query", d.handleQuery)
	mux.HandleFunc("GET /v1/metrics", d.handleMetrics)
	mux.HandleFunc("GET /v1/health", d.handleHealth)
	mux.HandleFunc("GET /v1/slo", d.handleSLO)
	return d.withRequestLog(mux)
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// withRequestLog emits one structured log line per request (method, path,
// tenant, status, duration) and feeds the HTTP request metrics.
func (d *Daemon) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		d.mHTTP.Inc()
		d.tHTTP.Observe(elapsed)
		slog.Info("http",
			"method", r.Method,
			"path", r.URL.Path,
			"tenant", r.URL.Query().Get("tenant"),
			"status", rec.status,
			"duration", elapsed,
		)
	})
}

// writeJSON answers with status and v as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (d *Daemon) handleTenants(w http.ResponseWriter, _ *http.Request) {
	d.mQueries.Inc()
	writeJSON(w, http.StatusOK, struct {
		Tenants []TenantInfo `json:"tenants"`
	}{d.Tenants()})
}

func (d *Daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	d.mQueries.Inc()
	name := r.URL.Query().Get("tenant")
	if name == "" {
		http.Error(w, "missing tenant parameter", http.StatusBadRequest)
		return
	}
	tn, ok := d.lookup(name)
	if !ok {
		http.Error(w, "unknown tenant "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	ans, ok := d.Answer(name)
	if !ok {
		http.Error(w, "tenant "+strconv.Quote(name)+" has no replica yet", http.StatusConflict)
		return
	}
	st, _ := tn.snapshot()
	resp := QueryResponse{Tenant: name, State: st, Answer: ans}

	if aggName := r.URL.Query().Get("agg"); aggName != "" {
		agg, err := query.ParseAggregate(aggName)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		attrs, err := parseAttrs(r.URL.Query().Get("attrs"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a, err := query.EvalSnapshot(ans.Estimates, ans.Eps, agg, attrs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if attrs == nil {
			attrs = []int{}
		}
		resp.Aggregate = &AggregateResponse{
			Agg: agg.String(), Attrs: attrs,
			Value: a.Value, Bound: a.Bound, Count: a.Count,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mQueries.Inc()
	name := r.URL.Query().Get("tenant")
	if name == "" {
		writeJSON(w, http.StatusOK, d.cfg.Obs.Registry().Snapshot())
		return
	}
	snap, ok := d.Metrics(name)
	if !ok {
		http.Error(w, "unknown tenant "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleHealth is the readiness probe: 200 with the full report while
// every tenant is ok (clean closes included), 503 with the same payload
// the moment any tenant is degraded, stale, shedding or failed — a probe
// can act on the status code alone, the reasons are in the body.
func (d *Daemon) handleHealth(w http.ResponseWriter, _ *http.Request) {
	d.mQueries.Inc()
	rep := d.Health()
	status := http.StatusOK
	if rep.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

func (d *Daemon) handleSLO(w http.ResponseWriter, r *http.Request) {
	d.mQueries.Inc()
	name := r.URL.Query().Get("tenant")
	if name == "" {
		http.Error(w, "missing tenant parameter", http.StatusBadRequest)
		return
	}
	st, ok := d.SLO(name)
	if !ok {
		http.Error(w, "unknown tenant "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// parseAttrs parses the comma-separated attrs= list; empty means all.
func parseAttrs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
