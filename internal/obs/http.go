package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Counters and gauges map directly; histograms are
// exported as summaries (quantile series plus _sum and _count), which is
// what the bucketless quantile snapshot corresponds to. Every metric gets
// a # HELP line — the string set via Registry.Describe, defaulting to the
// metric name so scrapers always see a well-formed pair. Output is sorted
// by metric name, so identical registries render identical bytes.
func WritePrometheus(w io.Writer, s Snapshot) error {
	help := func(name string) string {
		if h, ok := s.Help[name]; ok && h != "" {
			return h
		}
		return name
	}
	for _, name := range s.names() {
		if v, ok := s.Counters[name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help(name), name, name, v); err != nil {
				return err
			}
			continue
		}
		if v, ok := s.Gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help(name), name, name, v); err != nil {
				return err
			}
			continue
		}
		if h, ok := s.Histograms[name]; ok {
			_, err := fmt.Fprintf(w,
				"# HELP %s %s\n# TYPE %s summary\n%s{quantile=\"0.5\"} %v\n%s{quantile=\"0.9\"} %v\n%s{quantile=\"0.95\"} %v\n%s{quantile=\"0.99\"} %v\n%s_sum %v\n%s_count %d\n",
				name, help(name), name, name, h.P50, name, h.P90, name, h.P95, name, h.P99, name, h.Sum, name, h.Count)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteExpvar renders the snapshot as a flat JSON object in the style of
// expvar's /debug/vars: counters and gauges map name → number, histograms
// map name → their snapshot object. Keys are emitted sorted (encoding/json
// sorts map keys), so output is deterministic.
func WriteExpvar(w io.Writer, s Snapshot) error {
	flat := make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n, v := range s.Counters {
		flat[n] = v
	}
	for n, v := range s.Gauges {
		flat[n] = v
	}
	for n, h := range s.Histograms {
		flat[n] = h
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flat)
}

// Handler serves the registry over HTTP:
//
//	/metrics        Prometheus text format
//	/debug/vars     expvar-compatible JSON
//	/debug/pprof/   the standard runtime profiles (CPU, heap, goroutine, …)
//
// pprof is mounted explicitly rather than via the net/http/pprof side
// effect on http.DefaultServeMux, so the profiling surface exists only on
// servers that opt in with -obs-addr.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteExpvar(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "ken observability endpoint\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Serve starts the observability endpoint on addr in a background
// goroutine and returns the server (for Shutdown/Close) and the bound
// address — useful with ":0" in tests.
func Serve(addr string, r *Registry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(r), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// StartEndpoint is the -obs-addr leg every binary shares: when addr is set
// it starts Serve and logs the bound address; an empty addr is a no-op.
func StartEndpoint(addr string, r *Registry) error {
	if addr == "" {
		return nil
	}
	_, bound, err := Serve(addr, r)
	if err != nil {
		return err
	}
	slog.Info("observability endpoint up", "addr", bound.String(),
		"paths", "/metrics /debug/vars /debug/pprof/")
	return nil
}
