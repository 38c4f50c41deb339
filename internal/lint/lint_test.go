package lint_test

import (
	"path/filepath"
	"testing"

	"ken/internal/lint"
	"ken/internal/lint/driver"
)

// fixture resolves a testdata package directory.
func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestNondeterminism(t *testing.T) {
	driver.AnalysisTest(t, lint.Nondeterminism, fixture("internal", "bench"))
}

func TestNondeterminismSimnet(t *testing.T) {
	driver.AnalysisTest(t, lint.Nondeterminism, fixture("internal", "simnet"))
}

func TestMapRange(t *testing.T) {
	driver.AnalysisTest(t, lint.MapRange, fixture("maprange"))
}

func TestErrWireInCmd(t *testing.T) {
	driver.AnalysisTest(t, lint.ErrWire, fixture("cmd", "app"))
}

func TestErrWireInLibrary(t *testing.T) {
	driver.AnalysisTest(t, lint.ErrWire, fixture("lib"))
}

func TestFloatEq(t *testing.T) {
	driver.AnalysisTest(t, lint.FloatEq, fixture("internal", "stats"))
}

func TestObsHandle(t *testing.T) {
	driver.AnalysisTest(t, lint.ObsHandle, fixture("obsuser"))
}

func TestTraceSink(t *testing.T) {
	driver.AnalysisTest(t, lint.TraceSink, fixture("tracesinkuser"))
}

func TestGoLeak(t *testing.T) {
	driver.AnalysisTest(t, lint.GoLeak, fixture("internal", "sinkd"))
}

func TestLockSafe(t *testing.T) {
	driver.AnalysisTest(t, lint.LockSafe, fixture("locksafe"))
}

// TestSuiteShape pins the acceptance-criteria contract: the suite ships at
// least five analyzers, each named, documented, and with a Run function.
func TestSuiteShape(t *testing.T) {
	as := lint.Analyzers()
	if len(as) < 5 {
		t.Fatalf("suite has %d analyzers, want >= 5", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"nondeterminism", "maprange", "errwire", "floateq", "obshandle", "tracesink",
		"goleak", "locksafe"} {
		if !seen[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}

// TestScopes pins each analyzer to the packages its invariant lives in, so
// a scope regression cannot silently stop a deterministic package from
// being patrolled.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer  *driver.Analyzer
		scopePath string
		want      bool
	}{
		{lint.Nondeterminism, "internal/bench", true},
		{lint.Nondeterminism, "internal/engine", true},
		{lint.Nondeterminism, "internal/trace", true},
		{lint.Nondeterminism, "internal/mc", true},
		{lint.Nondeterminism, "internal/simnet", true},
		{lint.Nondeterminism, "internal/core", false},
		{lint.Nondeterminism, "cmd/kenbench", false},
		{lint.FloatEq, "internal/stats", true},
		{lint.FloatEq, "internal/gauss", true},
		{lint.FloatEq, "internal/mat", true},
		{lint.FloatEq, "internal/model", false},
		{lint.ObsHandle, "internal/obs", false},
		{lint.ObsHandle, "internal/core", true},
		{lint.GoLeak, "internal/sinkd", true},
		{lint.GoLeak, "internal/engine", true},
		{lint.GoLeak, "internal/simnet", true},
		{lint.GoLeak, "internal/obs", true},
		{lint.GoLeak, "internal/slo", true},
		{lint.GoLeak, "internal/core", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(c.scopePath); got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.analyzer.Name, c.scopePath, got, c.want)
		}
	}
	if lint.MapRange.Scope != nil {
		t.Errorf("maprange should run everywhere (nil scope)")
	}
	if lint.ErrWire.Scope != nil {
		t.Errorf("errwire should run everywhere (nil scope)")
	}
	if lint.LockSafe.Scope != nil {
		t.Errorf("locksafe should run everywhere (nil scope)")
	}
}
