// Package analyzers holds the four arblint analyzers, one per
// load-bearing invariant of the two-scan engine:
//
//   - ctxflow: engine code threads context, never mints its own roots
//   - lockdiscipline: `// guarded by:` fields are accessed under their mutex
//   - closecheck: storage readers, files and scratch files get closed or released
//   - lockorder: declared mutexes keep one global acquisition order
//
// Analyzers are heuristic but deliberately low-noise: each rule is scoped
// to the package layers where its invariant is load-bearing, and the
// directives in package lint (//arblint:allow, //arblint:todo) give
// reviewed escape hatches. The last leans on the lint.Module
// interprocedural layer: module-wide summaries of callees shared through
// Mod.Memo. Snapshot pins, atomics, temp files and goroutines need no
// analyzer:
// Session.pinned releases its pin with a defer, the repo uses typed
// atomics only, and only internal/storage/file.go creates or renames a
// file — a committed file through WriteFile, which removes its temporary
// on failure, a scratch file as a handle whose Close removes it — and the
// library has one go statement, the worker pool's; ci.sh keeps all four
// shapes with grep ratchets.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"arb/internal/lint"
)

// All is the full suite in reporting order.
var All = []*lint.Analyzer{
	Ctxflow, LockDiscipline, CloseCheck, LockOrder,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *lint.Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// calleeFunc resolves the function or method a call statically invokes.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// exprName renders a call target for diagnostics (best effort).
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X)
	case *ast.CallExpr:
		return exprName(e.Fun) + "(...)"
	}
	return "call"
}

// underPath reports whether package path is pkg itself or below it.
func underPath(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// libraryScope reports whether path is arb library code (the module root
// package or anything under arb/internal), as opposed to cmd/ and
// examples/ binaries where a process-lifetime context root or an
// OS-cleaned temp file is fine.
func libraryScope(path string) bool {
	return path == "arb" || underPath(path, "arb/internal")
}
