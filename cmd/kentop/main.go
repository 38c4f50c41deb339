// Command kentop is the terminal dashboard over kensinkd's /v1 API: it
// polls GET /v1/health and renders the tenant fleet with per-tenant
// health, ε-violation rate, staleness, apply-latency, queue and shed
// columns — the live view of the daemon's SLO monitor.
//
//	kentop -http http://127.0.0.1:7071            # full-screen, repaints every 2s
//	kentop -http http://127.0.0.1:7071 -once      # one table, for scripts
//	kentop -once -fail-degraded                   # CI probe: exit 3 unless healthy
//
// With -fail-degraded the exit code is the health verdict (0 healthy,
// 3 degraded), so a smoke test needs no JSON parsing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"ken/internal/sinkd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	base         string
	interval     time.Duration
	once         bool
	failDegraded bool
	client       *http.Client
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kentop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.base, "http", "http://127.0.0.1:7071", "base URL of the kensinkd /v1 API")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "poll interval")
	fs.BoolVar(&o.once, "once", false, "render one table and exit (for scripts and CI)")
	fs.BoolVar(&o.failDegraded, "fail-degraded", false, "exit 3 when the daemon reports any unhealthy tenant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.base = strings.TrimRight(o.base, "/")
	o.client = &http.Client{Timeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return o.run(ctx, stdout, stderr)
}

func (o options) run(ctx context.Context, stdout, stderr io.Writer) int {
	for {
		rep, err := o.fetch(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "kentop: %v\n", err)
			return 1
		}
		if !o.once {
			// Clear and home, so the table repaints in place.
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
		}
		render(stdout, o.base, rep)
		if o.once || (o.failDegraded && rep.Status != "ok") {
			if o.failDegraded && rep.Status != "ok" {
				fmt.Fprintf(stderr, "kentop: daemon degraded (%d unhealthy tenants)\n", rep.Unhealthy)
				return 3
			}
			return 0
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(o.interval):
		}
	}
}

// fetch pulls one health report. A non-200 status is NOT an error at this
// layer: /v1/health answers 503 with the same payload when degraded, and
// the dashboard's job is to show exactly that.
func (o options) fetch(ctx context.Context) (sinkd.HealthReport, error) {
	var rep sinkd.HealthReport
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.base+"/v1/health", nil)
	if err != nil {
		return rep, err
	}
	resp, err := o.client.Do(req)
	if err != nil {
		return rep, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return rep, fmt.Errorf("GET /v1/health: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("decoding /v1/health: %w", err)
	}
	return rep, nil
}

func render(w io.Writer, base string, rep sinkd.HealthReport) {
	fmt.Fprintf(w, "kentop · %s · status: %s · tenants: %d (%d unhealthy)\n\n",
		base, rep.Status, len(rep.Tenants), rep.Unhealthy)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TENANT\tHEALTH\tSTATE\tSTEP\tVIOL%\tDEV\tSTALE\tP95MS\tQUEUE\tSHED\tREASONS")
	for _, t := range rep.Tenants {
		reasons := strings.Join(t.Reasons, ",")
		if reasons == "" {
			reasons = "-"
		}
		w0 := t.Window
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.2f\t%d\t%s\t%.1f\t%d/%d\t%d\t%s\n",
			t.Name, t.Health, t.State, w0.LastStep,
			100*w0.ViolationRate, w0.Deviations,
			fmtStale(w0.StalenessSeconds),
			1000*w0.LatencyP95,
			w0.QueueDepth, w0.QueueCap,
			w0.TotalSheds, reasons)
	}
	_ = tw.Flush()
}

// fmtStale renders a staleness watermark compactly: sub-second as ms,
// then seconds, then minutes.
func fmtStale(sec float64) string {
	switch {
	case sec < 1:
		return fmt.Sprintf("%.0fms", 1000*sec)
	case sec < 120:
		return fmt.Sprintf("%.1fs", sec)
	default:
		return fmt.Sprintf("%.1fm", sec/60)
	}
}
