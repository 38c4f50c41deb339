// Command kensinkd is the multi-tenant base-station daemon: one listener
// hosting many concurrent deployments. Each kensource connection opens
// with a session handshake carrying its serialized deployment spec; the
// daemon builds that tenant's replica (deduplicating builds across
// tenants sharing a spec), applies its report stream under a bounded
// frame budget — slow tenants are shed with a typed reject, never
// blocking the accept loop — and serves live answers over HTTP:
//
//	kensinkd -listen 127.0.0.1:7070 -http 127.0.0.1:7071 &
//	kensource -connect 127.0.0.1:7070 -tenant a -seed 1 -steps 500 &
//	kensource -connect 127.0.0.1:7070 -tenant b -seed 7 -steps 500 &
//	curl 'http://127.0.0.1:7071/v1/tenants'
//	curl 'http://127.0.0.1:7071/v1/query?tenant=a'
//	curl 'http://127.0.0.1:7071/v1/query?tenant=a&agg=avg&attrs=0,1,2'
//
// With -pin the daemon admits only the deployment described by its own
// -dataset/-seed/-train/-k/-eps flags and rejects every other spec with
// a typed spec-mismatch naming both sides. With -obs-addr it serves the
// daemon-wide sinkd_* metrics plus /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ken/internal/deploy"
	"ken/internal/obs"
	"ken/internal/sinkd"
	"ken/internal/slo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flags; run stays a thin parser so the whole
// daemon path is testable without a process boundary.
type options struct {
	listen      string
	httpAddr    string
	pin         bool
	maxTenants  int
	frameBudget int
	applyDelay  time.Duration
	staleAfter  time.Duration
	latBudget   time.Duration
	params      deploy.Params
	ob          *obs.Observer

	// ready, when non-nil, receives the bound session and HTTP addresses
	// once both listeners are up (tests use it for ephemeral ports).
	ready chan<- [2]string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kensinkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	o.params.Register(fs)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7070", "address to accept source sessions on")
	fs.StringVar(&o.httpAddr, "http", "127.0.0.1:7071", "address of the /v1 query API (empty = off)")
	fs.BoolVar(&o.pin, "pin", false, "admit only the deployment described by the -dataset/-seed/-train/-k/-eps flags; reject every other spec")
	fs.IntVar(&o.maxTenants, "max-tenants", 1024, "reject sessions beyond this many live tenants")
	fs.IntVar(&o.frameBudget, "frame-budget", 256, "queued frames per tenant before it is shed")
	fs.DurationVar(&o.applyDelay, "apply-delay", 0, "fault injection: slow every frame apply by this much (ops rehearsal for the backpressure/shed path)")
	fs.DurationVar(&o.staleAfter, "stale-after", 0, "mark a silent tenant stale in /v1/health after this long (0 = slo default)")
	fs.DurationVar(&o.latBudget, "latency-budget", 0, "ingest→apply latency above which an ε deviation counts as a violation (0 = slo default)")
	obsAddr := fs.String("obs-addr", "", "serve the daemon /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	var logFlags obs.LogFlags
	logFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logFlags.Setup(nil); err != nil {
		fmt.Fprintf(stderr, "kensinkd: %v\n", err)
		return 2
	}
	o.ob = &obs.Observer{Reg: obs.NewRegistry()}
	if err := obs.StartEndpoint(*obsAddr, o.ob.Reg); err != nil {
		slog.Error("observability endpoint", "err", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := o.run(ctx, stdout); err != nil {
		slog.Error("run failed", "err", err)
		return 1
	}
	return 0
}

func (o options) run(ctx context.Context, stdout io.Writer) error {
	cfg := sinkd.Config{
		MaxTenants:  o.maxTenants,
		FrameBudget: o.frameBudget,
		ApplyDelay:  o.applyDelay,
		Obs:         o.ob,
		SLO:         slo.Config{StaleAfter: o.staleAfter, LatencyBudget: o.latBudget},
	}
	if o.pin {
		if err := o.params.Validate(); err != nil {
			return err
		}
		pin := o.params
		cfg.Pin = &pin
	}
	d := sinkd.New(cfg)

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	defer ln.Close()

	var httpLn net.Listener
	if o.httpAddr != "" {
		httpLn, err = net.Listen("tcp", o.httpAddr)
		if err != nil {
			return err
		}
		defer httpLn.Close()
	}

	pinDesc := "off"
	if cfg.Pin != nil {
		pinDesc = cfg.Pin.ReplicaKey()
	}
	slog.Info("kensinkd up", "listen", ln.Addr().String(), "pin", pinDesc,
		"max_tenants", o.maxTenants, "frame_budget", o.frameBudget)
	fmt.Fprintf(stdout, "kensinkd: sessions on %s\n", ln.Addr().String())

	srvErr := make(chan error, 2)
	var httpSrv *http.Server
	if httpLn != nil {
		slog.Info("query API up", "addr", httpLn.Addr().String(),
			"paths", "/v1/tenants /v1/query /v1/metrics /v1/health /v1/slo")
		fmt.Fprintf(stdout, "kensinkd: query API on http://%s/v1\n", httpLn.Addr().String())
		httpSrv = &http.Server{Handler: d.Handler()}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
				srvErr <- err
			}
		}()
	}
	if o.ready != nil {
		httpAddr := ""
		if httpLn != nil {
			httpAddr = httpLn.Addr().String()
		}
		o.ready <- [2]string{ln.Addr().String(), httpAddr}
	}
	go func() { srvErr <- d.Serve(ln) }()

	select {
	case <-ctx.Done():
		slog.Info("shutting down")
	case err := <-srvErr:
		if err != nil {
			return err
		}
	}
	_ = ln.Close()
	if httpSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}
	d.Close()
	for _, t := range d.Tenants() {
		slog.Info("tenant", "name", t.Name, "state", string(t.State),
			"spec", t.Spec, "frames", t.Step, "heartbeats", t.Heartbeats)
	}
	return nil
}
