// Package analyzers holds the eight arblint analyzers, one per
// load-bearing invariant of the two-scan engine:
//
//   - ctxflow: engine code threads context, never mints its own roots
//   - lockdiscipline: `// guarded by:` fields are accessed under their mutex
//   - tmpcleanup: temp state/aux files are removed on error and cancel paths
//   - closecheck: storage readers and files get closed or released
//   - snappin: MVCC snapshot pins are Released on every path (CFG-based,
//     interprocedural through arblint:acquires / arblint:owns contracts)
//   - atomicmix: fields touched via sync/atomic are never accessed plainly
//   - goroleak: spawned goroutines provably terminate (cancellation-bound)
//   - lockorder: declared mutexes keep one global acquisition order
//
// Analyzers are heuristic but deliberately low-noise: each rule is scoped
// to the package layers where its invariant is load-bearing, and the
// directives in package lint (//arblint:allow, //arblint:todo) give
// reviewed escape hatches. The last four lean on the lint.Module/lint.CFG
// interprocedural layer: per-function control flow graphs plus
// module-wide may-reach summaries shared through Mod.Memo.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"arb/internal/lint"
)

// All is the full suite in reporting order.
var All = []*lint.Analyzer{
	Ctxflow, LockDiscipline, TmpCleanup, CloseCheck,
	SnapPin, AtomicMix, GoroLeak, LockOrder,
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

// funcKey names a function or method as pkgpath.Func or pkgpath.Type.Method,
// ignoring pointerness of the receiver.
func funcKey(f *types.Func) string {
	s := f.FullName()
	s = strings.ReplaceAll(s, "(*", "")
	s = strings.ReplaceAll(s, "(", "")
	return strings.ReplaceAll(s, ")", "")
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
