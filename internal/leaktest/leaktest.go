// Package leaktest is the goroutine-leak gate. Every package whose non-test
// code starts goroutines calls Main from its TestMain. Once the tests pass,
// Main waits for every goroutine that runs a function of this module, or was
// created by one, to exit. If one is still alive at the deadline, Main fails
// the test binary and names the function that created it. What keeps the
// goroutine alive does not matter — a channel nobody closes, a sleep, a
// server nobody shuts down — because the check looks at what runs, not at
// how it was started.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// module prefixes every function name of this module in a stack dump.
const module = "ken/"

// wait bounds how long a shut-down goroutine may take to exit after the
// tests return; a package whose goroutines have all exited passes at the
// first poll.
const wait = 5 * time.Second

// Main runs the tests, then fails the binary if any goroutine of this module
// outlives them.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := check(wait); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// check polls until leaks reports none, and returns an error naming the
// survivors if some remain after timeout.
func check(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		leaked := leaks()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leaktest: %d goroutine(s) outlived the tests:\n\t%s",
				len(leaked), strings.Join(leaked, "\n\t"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leaks describes each live goroutine, the caller's excepted, that runs a
// function of this module or was created by one: its header line and the
// function that created it.
func leaks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The dump separates goroutines by a blank line and lists the caller's
	// first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		header, creator, ours := "", "", false
		for i, line := range strings.Split(g, "\n") {
			if i == 0 {
				header = strings.TrimSuffix(line, ":")
			}
			if c, ok := strings.CutPrefix(line, "created by "); ok {
				creator, _, _ = strings.Cut(c, " in goroutine ")
				line = c
			}
			ours = ours || strings.HasPrefix(line, module)
		}
		if ours {
			out = append(out, header+" created by "+creator)
		}
	}
	return out
}
