// Package driver is a deliberately small, stdlib-only re-creation of the
// golang.org/x/tools go/analysis vocabulary — Analyzer, Pass, Diagnostic —
// plus the package loader and fixture test harness the kenlint suite runs
// on. The repository keeps zero external dependencies, so instead of
// importing x/tools this package rebuilds the ~10% of it the suite needs
// on top of go/parser, go/ast, go/types and go/importer. See docs/LINT.md
// for the trade-off.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:ignore <name> <reason>" directives.
	Name string
	// Doc is the one-paragraph description printed by "kenlint -help".
	Doc string
	// Scope, when non-nil, restricts the analyzer to packages whose
	// scope path (module-relative import path) it accepts. A nil Scope
	// runs everywhere.
	Scope func(scopePath string) bool
	// Run reports diagnostics for one package through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package through one analyzer, mirroring
// go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by file, line and analyzer. Diagnostics suppressed by
// an inline "//lint:ignore" directive are dropped here, after the
// analyzers ran.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ignores := ignoreIndex(pkg)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.ScopePath) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !ignores.suppresses(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// ignoreEntry is one parsed "//lint:ignore <analyzer> <reason>" directive.
// It suppresses matching diagnostics on its own line and on the first
// following line — i.e. it can sit at the end of the offending line or on
// the line directly above it.
type ignoreEntry struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet []ignoreEntry

// ignoreIndex collects the ignore directives of a package. A directive
// with a missing reason is deliberately still honoured — kenlint's own
// style check for reasons lives in the fixture docs, not here — but the
// analyzer name must match exactly ("*" matches any analyzer).
func ignoreIndex(pkg *Package) ignoreSet {
	var set ignoreSet
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				set = append(set, ignoreEntry{file: pos.Filename, line: pos.Line, analyzer: fields[0]})
			}
		}
	}
	return set
}

func (s ignoreSet) suppresses(d Diagnostic) bool {
	for _, e := range s {
		if e.file != d.Pos.Filename {
			continue
		}
		if e.analyzer != d.Analyzer && e.analyzer != "*" {
			continue
		}
		if d.Pos.Line == e.line || d.Pos.Line == e.line+1 {
			return true
		}
	}
	return false
}

// ScopeNot builds a Scope function that runs the analyzer everywhere except
// the given module-relative subtree: "internal/obs" excludes the package
// itself and everything below it, but not "internal/observe".
func ScopeNot(prefix string) func(string) bool {
	return func(path string) bool {
		return path != prefix && !strings.HasPrefix(path, prefix+"/")
	}
}

// Inspect walks every file of the pass's package in source order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
