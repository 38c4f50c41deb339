package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ken/internal/obs"
)

// goldenRegistry builds a registry with one of each metric kind and known
// values: counter c=3 (described), gauge g=2.5, histogram h over {1, 2, 4}.
func goldenRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("c").Add(3)
	reg.Describe("c", "a described counter")
	reg.Gauge("g").Set(2.5)
	h := reg.Histogram("h")
	h.Observe(1)
	h.Observe(2)
	h.Observe(4)
	return reg
}

func TestWritePrometheusGolden(t *testing.T) {
	const want = `# HELP c a described counter
# TYPE c counter
c 3
# HELP g g
# TYPE g gauge
g 2.5
# HELP h h
# TYPE h summary
h{quantile="0.5"} 2
h{quantile="0.9"} 4
h{quantile="0.95"} 4
h{quantile="0.99"} 4
h_sum 7
h_count 3
`
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusSortsNames registers the metric kinds against their
// name order (histogram "a", gauge "b", then twenty counters in descending
// order): the output must still list every metric by name, however the
// snapshot's three maps iterate.
func TestWritePrometheusSortsNames(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("a").Observe(1)
	reg.Gauge("b").Set(1)
	want := []string{"a", "b"}
	for i := 19; i >= 0; i-- {
		reg.Counter(fmt.Sprintf("c%02d", i)).Inc()
	}
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("c%02d", i))
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("metric order:\n got  %v\n want %v", got, want)
	}
}

func TestWriteExpvarGolden(t *testing.T) {
	const want = `{
  "c": 3,
  "g": 2.5,
  "h": {
    "count": 3,
    "sum": 7,
    "min": 1,
    "max": 4,
    "p50": 2,
    "p90": 4,
    "p95": 4,
    "p99": 4
  }
}
`
	var buf bytes.Buffer
	if err := obs.WriteExpvar(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("expvar output:\n%s\nwant:\n%s", got, want)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(obs.Handler(goldenRegistry()))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "c 3") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ctype)
	}

	code, body, _ = get("/debug/vars")
	var flat map[string]any
	if err := json.Unmarshal([]byte(body), &flat); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if code != http.StatusOK || flat["c"] != float64(3) {
		t.Errorf("/debug/vars: code=%d c=%v", code, flat["c"])
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code=%d", code)
	}

	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code=%d, want 404", code)
	}
}

// TestServeLiveScrape boots the real background server on :0 and scrapes a
// metric that changes between requests — the kensim -obs-addr flow.
func TestServeLiveScrape(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	reg.Counter("epochs").Inc()
	if got := scrape(); !strings.Contains(got, "epochs 1") {
		t.Errorf("first scrape: %q", got)
	}
	reg.Counter("epochs").Inc()
	if got := scrape(); !strings.Contains(got, "epochs 2") {
		t.Errorf("second scrape: %q", got)
	}
}
