package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Children (kensinkd, kenbench) and temporary directories are undone on
// every exit path: each registers an undo with onExit, normal returns call
// it themselves, and a SIGINT or SIGTERM runs whatever is still registered.

type exitHook struct {
	id   int
	undo func()
}

var exitHooks struct {
	mu    sync.Mutex
	next  int
	hooks []exitHook
	// undoing is held while hooks run, so that a main goroutine whose child
	// a signal just killed waits for the clean-up instead of exiting under it.
	undoing sync.Mutex
}

// onExit registers undo and returns a function that runs it (once) and
// drops the registration.
func onExit(undo func()) func() {
	exitHooks.mu.Lock()
	defer exitHooks.mu.Unlock()
	id := exitHooks.next
	exitHooks.next++
	exitHooks.hooks = append(exitHooks.hooks, exitHook{id, undo})
	return func() {
		exitHooks.mu.Lock()
		var fn func()
		for i, h := range exitHooks.hooks {
			if h.id == id {
				fn = h.undo
				exitHooks.hooks = append(exitHooks.hooks[:i], exitHooks.hooks[i+1:]...)
				break
			}
		}
		exitHooks.mu.Unlock()
		if fn != nil {
			fn()
		}
	}
}

// runExitHooks undoes everything still registered, newest first.
func runExitHooks() {
	exitHooks.undoing.Lock()
	defer exitHooks.undoing.Unlock()
	exitHooks.mu.Lock()
	hooks := exitHooks.hooks
	exitHooks.hooks = nil
	exitHooks.mu.Unlock()
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i].undo()
	}
}

// trapSignals makes an interrupt clean up before the process exits.
func trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runExitHooks()
		os.Exit(130)
	}()
}

// tempDir makes a scratch directory under out; the returned function
// removes it.
func tempDir(out string) (string, func(), error) {
	dir, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return "", nil, err
	}
	return dir, onExit(func() { _ = os.RemoveAll(dir) }), nil // best effort: nothing to do about a failed removal
}

// buildChildren compiles the binaries the workloads run as children and
// returns how long that took. It runs before any clock starts.
func buildChildren(root, bin string) (float64, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/kensinkd", "./cmd/kenbench")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("building kensinkd and kenbench: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// startChild starts cmd so that it dies with the benchmark; the returned
// function kills it and waits for it.
func startChild(cmd *exec.Cmd) (func(), error) {
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return onExit(func() {
		_ = cmd.Process.Kill() // already gone is fine
		_ = cmd.Wait()         // the exit status of a killed child says nothing
	}), nil
}

// daemon is a running kensinkd child on ephemeral ports.
type daemon struct {
	cmd     *exec.Cmd
	Session string // host:port of the session listener
	HTTP    string // base URL of the /v1 API
	drained chan struct{}
	kill    func()
}

// startDaemon starts kensinkd on ephemeral ports and reads the bound
// addresses off its standard output.
func startDaemon(c *runCtx, args ...string) (*daemon, error) {
	argv := append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-log-level", "warn"}, args...)
	argv = append(argv, c.DaemonArgs...)
	cmd := exec.Command(filepath.Join(c.Bin, "kensinkd"), argv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	kill, err := startChild(cmd)
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), kill: kill}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.drained)
		var session, api string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "kensinkd: sessions on "); ok {
				session = rest
			}
			if rest, ok := strings.CutPrefix(line, "kensinkd: query API on "); ok {
				api = strings.TrimSuffix(rest, "/v1")
			}
			if session != "" && api != "" {
				addrs <- [2]string{session, api}
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe from filling; EOF comes when the child exits
	}()
	select {
	case a := <-addrs:
		d.Session, d.HTTP = a[0], a[1]
		return d, nil
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("kensinkd exited before announcing its addresses")
	case <-time.After(15 * time.Second):
		d.stop()
		return nil, fmt.Errorf("kensinkd did not announce its addresses within 15 s")
	}
}

// stop ends the daemon — SIGTERM, then SIGKILL after 3 s — and reaps it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-d.drained:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	d.kill()
}

// cpuSeconds is the daemon's user + system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(buf[strings.LastIndexByte(string(buf), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line")
	}
	return (utime + stime) / 100, nil
}

func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func selfPeakRSSMB() float64 { return peakRSSMB(os.Getpid()) }

// selfCPU is this process's user + system CPU time so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// childUsage is a finished child's CPU seconds and peak RSS in MiB.
func childUsage(st *os.ProcessState) (cpu, rssMB float64) {
	cpu = st.UserTime().Seconds() + st.SystemTime().Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// keepAliveClient is an HTTP client that holds one connection open.
func keepAliveClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}
