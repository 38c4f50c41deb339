package leaktest

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// spawnBlocked starts a goroutine that waits on ch until it is closed.
func spawnBlocked(ch chan struct{}) {
	go func() { <-ch }()
}

// TestReportsBlockedGoroutine: a goroutine parked on a channel nobody
// closes is reported with the function that created it, and stops being
// reported once it exits. The test releases it, so the package that runs
// this test does not leak.
func TestReportsBlockedGoroutine(t *testing.T) {
	ch := make(chan struct{})
	spawnBlocked(ch)
	err := check(50 * time.Millisecond)
	close(ch)
	if err == nil || !strings.Contains(err.Error(), "created by ken/internal/leaktest.spawnBlocked") {
		t.Fatalf("check = %v, want the blocked goroutine named by its creator", err)
	}
	if err := check(wait); err != nil {
		t.Fatalf("released goroutine still reported: %v", err)
	}
}

// TestWaitsForExitingGoroutine: a goroutine that exits before the deadline
// is not a leak.
func TestWaitsForExitingGoroutine(t *testing.T) {
	go time.Sleep(100 * time.Millisecond)
	if err := check(wait); err != nil {
		t.Fatal(err)
	}
}

// TestIgnoresForeignGoroutines: a goroutine with no frame in this module —
// here an httptest server's accept loop and the client's kept-alive
// connection — is not this module's to join.
func TestIgnoresForeignGoroutines(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	buf := make([]byte, 1<<16)
	if dump := string(buf[:runtime.Stack(buf, true)]); !strings.Contains(dump, "net/http.(*Server).Serve") {
		t.Fatal("no server goroutine running — test premise broken")
	}
	if err := check(0); err != nil {
		t.Fatal(err)
	}
}
