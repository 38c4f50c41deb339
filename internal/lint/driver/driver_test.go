package driver

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// writeModule lays out a throwaway single-package module and returns the
// package directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixturemod\n\ngo 1.22\n"
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoaderTypeChecksAcrossPackages(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":      "package a\n\nimport \"fixturemod/b\"\n\nfunc A() int { return b.B() }\n",
		"b/b.go":      "package b\n\nimport \"strings\"\n\nfunc B() int { return strings.Count(\"aa\", \"a\") }\n",
		"b/b_test.go": "package b\n\nfunc testOnly() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	if pkgs[0].Path != "fixturemod/a" || pkgs[1].Path != "fixturemod/b" {
		t.Fatalf("paths = %q, %q", pkgs[0].Path, pkgs[1].Path)
	}
	if pkgs[0].ScopePath != "a" {
		t.Fatalf("scope path = %q, want %q", pkgs[0].ScopePath, "a")
	}
	// Test files are never loaded.
	for _, f := range pkgs[1].Files {
		if pos := pkgs[1].Fset.Position(f.Pos()); filepath.Base(pos.Filename) == "b_test.go" {
			t.Fatalf("test file loaded")
		}
	}
}

func TestScopePath(t *testing.T) {
	cases := []struct{ path, module, want string }{
		{"ken/internal/bench", "ken", "internal/bench"},
		{"ken", "ken", "."},
	}
	for _, c := range cases {
		if got := scopePath(c.path, c.module); got != c.want {
			t.Errorf("scopePath(%q, %q) = %q, want %q", c.path, c.module, got, c.want)
		}
	}
}

func TestScopeHelpers(t *testing.T) {
	not := ScopeNot("internal/obs")
	for path, want := range map[string]bool{
		"internal/obs":     false,
		"internal/obs/sub": false,
		"internal/observe": true,
		"internal/core":    true,
	} {
		if not(path) != want {
			t.Errorf("ScopeNot(%q) = %v, want %v", path, not(path), want)
		}
	}
}

// TestIgnoreDirective checks the //lint:ignore escape hatch: same line and
// next line are suppressed, other analyzers and other lines are not.
func TestIgnoreDirective(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go": `package p

func f() int { return 1 } //lint:ignore testcheck same-line reason

//lint:ignore testcheck next-line reason
func g() int { return 2 }

//lint:ignore othercheck wrong analyzer
func h() int { return 3 }

func k() int { return 4 }
`,
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatal(err)
	}
	// testcheck flags every function declaration.
	a := &Analyzer{
		Name: "testcheck",
		Doc:  "flags every function",
		Run: func(pass *Pass) error {
			pass.Inspect(func(n ast.Node) bool {
				if d, ok := n.(*ast.FuncDecl); ok {
					pass.Reportf(d.Pos(), "func %s", d.Name.Name)
				}
				return true
			})
			return nil
		},
	}
	diags, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{"func h", "func k"}
	if len(got) != len(want) {
		t.Fatalf("diagnostics = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostics = %v, want %v", got, want)
		}
	}
}

func TestWantParser(t *testing.T) {
	got := parseWantPatterns("`a\\.b` \"c \\\"d\\\"\" `e`")
	want := []string{`a\.b`, `c "d"`, "e"}
	if len(got) != len(want) {
		t.Fatalf("parseWantPatterns = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseWantPatterns = %q, want %q", got, want)
		}
	}
}
