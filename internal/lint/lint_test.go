package lint_test

import (
	"path/filepath"
	"testing"

	"ken/internal/lint"
	"ken/internal/lint/driver"
)

// fixture resolves a testdata package directory.
func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestObsHandle(t *testing.T) {
	driver.AnalysisTest(t, lint.ObsHandle, fixture("obsuser"))
}

func TestLockSafe(t *testing.T) {
	driver.AnalysisTest(t, lint.LockSafe, fixture("locksafe"))
}

// TestSuiteShape pins the suite to the analyzers no test witnesses (docs/LINT.md
// "What the tests witness"), each named, documented, and with a Run function.
func TestSuiteShape(t *testing.T) {
	want := []string{"obshandle", "locksafe"}
	as := lint.Analyzers()
	if len(as) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestScopes pins each analyzer to the packages its invariant lives in, so
// a scope regression cannot silently stop a package from being patrolled.
func TestScopes(t *testing.T) {
	if lint.ObsHandle.Scope("internal/obs") || !lint.ObsHandle.Scope("internal/core") {
		t.Errorf("obshandle must skip internal/obs, whose implementation is the nil checks, and patrol the rest")
	}
	if lint.LockSafe.Scope != nil {
		t.Errorf("locksafe should run everywhere (nil scope)")
	}
}
