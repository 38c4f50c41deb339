// Package lint is kenlint's analyzer suite: custom static checks for the
// two invariants a test cannot witness, because breaking them costs time
// but changes no result — metric-handle discipline and locks held across
// blocking work (docs/LINT.md; the two "kenlint ledger" sections of
// EXPERIMENTS.md are the planted-defect ledgers that chose them). The
// analyzers run on the stdlib-only go/analysis work-alike in
// internal/lint/driver; cmd/kenlint is the multichecker binary and
// "make lint" the gate. docs/LINT.md catalogues both analyzers, the
// invariant behind each, what it catches, and the
// "//lint:ignore <analyzer> <reason>" escape hatch.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"ken/internal/lint/driver"
)

// Analyzers returns the full kenlint suite in stable order.
func Analyzers() []*driver.Analyzer {
	return []*driver.Analyzer{ObsHandle, LockSafe}
}

// callee resolves the *types.Func a call invokes (package function or
// method), or nil for builtins, conversions, and indirect calls through
// function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgPath returns the import path of the package a function belongs
// to ("" for builtins and universe-scope functions like error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isMethod reports whether fn has a receiver.
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// fromPkg reports whether fn lives in the package with the given
// module-relative import path: an exact match ("time"), or a module
// internal path matched by suffix so "internal/obs" covers
// "ken/internal/obs" wherever the module is checked out.
func fromPkg(fn *types.Func, path string) bool {
	p := funcPkgPath(fn)
	return p == path || strings.HasSuffix(p, "/"+path)
}
