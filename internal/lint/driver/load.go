package driver

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the full import path ("ken/internal/bench").
	Path string
	// ScopePath is the path analyzers match scopes against: Path with the
	// module prefix stripped ("internal/bench").
	ScopePath string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader loads and type-checks packages of the enclosing module from
// source. Module-internal imports are resolved against the module root;
// standard-library imports go through go/importer's source importer, so the
// whole thing needs nothing beyond the Go toolchain's own GOROOT — no
// export data, no network, no golang.org/x/tools.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package // by directory
	loading    map[string]bool     // import cycle detection, by directory
}

// NewLoader locates the enclosing module starting from dir (walking up to
// the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: path,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and parses the module
// path out of it.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("driver: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("driver: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Load expands the given patterns ("./...", "./cmd/...", plain directories)
// relative to the module root and returns the matched packages in
// deterministic (path) order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "." || base == "" {
			base = l.moduleRoot
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(l.moduleRoot, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var out []*Package
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir loads the single package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := l.loadDir(abs)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("driver: no Go files in %s", dir)
	}
	return pkg, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in dir (memoized), leaving its
// _test.go files out. A dir whose eligible file list is empty (for example
// a directory holding only test files) returns (nil, nil).
func (l *Loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("driver: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)

	var files []*ast.File
	var pkgName string
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		name := f.Name.Name
		// Files excluded by a //go:build constraint (e.g. the race-tagged
		// half of a constant pair) would redeclare symbols if both halves
		// type-checked together; keep only the default-context half.
		if !buildConstraintSatisfied(f) {
			continue
		}
		if pkgName == "" {
			pkgName = name
		}
		if name != pkgName {
			return nil, fmt.Errorf("driver: %s: mixed packages %s and %s", dir, pkgName, name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[dir] = nil
		return nil, nil
	}

	path := l.importPathFor(dir)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := &types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:      path,
		ScopePath: scopePath(path, l.modulePath),
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}

// importPathFor synthesizes the import path of a directory inside the
// module.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// buildConstraintSatisfied reports whether the file's //go:build
// constraint (if any) holds in the default build context. Only the host
// GOOS/GOARCH, the gc compiler and release tags satisfy; custom tags like
// "race" or "integration" do not, so of a tag-split constant pair exactly
// the default half is loaded.
func buildConstraintSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(defaultBuildTag)
		}
	}
	return true
}

func defaultBuildTag(tag string) bool {
	return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
		strings.HasPrefix(tag, "go1")
}

// scopePath derives the path analyzers scope against.
func scopePath(path, modulePath string) string {
	if p := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"); p != "" {
		return p
	}
	return "."
}

// loaderImporter resolves imports during type-checking: module-internal
// paths from source inside the module, everything else through the
// standard-library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("driver: no Go files for import %q", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
