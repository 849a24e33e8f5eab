package analyzers

import (
	"go/ast"
	"go/types"

	"arb/internal/lint"
)

// TmpCleanup enforces the temp-file discipline of the disk execution
// paths: every temporary state file, aux sidecar or scratch directory a
// library function creates must be removed on failure and cancellation —
// a cancelled multi-pass query must not leak .sta or aux files next to
// the database. Tracked creations are os.CreateTemp and os.MkdirTemp
// anywhere in library code, plus os.Create in internal/core and
// internal/xpath (where os.Create writes state files and sidecars;
// internal/storage's os.Create sites build the persistent database
// files, whose lifetime the caller owns).
//
// A creation passes if the enclosing function either registers a defer
// that calls os.Remove/os.RemoveAll (the cleanup may be conditional —
// `if !succeeded` — which is exactly the keep-on-success pattern), or
// returns the created handle/path, transferring cleanup ownership to the
// caller.
var TmpCleanup = &lint.Analyzer{
	Name: "tmpcleanup",
	Doc:  "temp files and directories created in library code must be removed on error and cancel paths",
	Run:  runTmpCleanup,
}

func runTmpCleanup(pass *lint.Pass) error {
	path := pass.Pkg.Path()
	if !libraryScope(path) {
		return nil
	}
	trackCreate := underPath(path, "arb/internal/core") || underPath(path, "arb/internal/xpath")
	tracked := func(key string) bool {
		switch key {
		case "os.CreateTemp", "os.MkdirTemp":
			return true
		case "os.Create":
			return trackCreate
		}
		return false
	}
	for _, f := range pass.Files {
		var funcs []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				funcs = funcs[:len(funcs)-1]
				return true
			}
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
			default:
				funcs = append(funcs, nil)
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || !tracked(lint.FuncKey(fn)) {
				return true
			}
			var enclosing ast.Node
			for i := len(funcs) - 1; i >= 0; i-- {
				if funcs[i] != nil {
					enclosing = funcs[i]
					break
				}
			}
			if enclosing == nil {
				return true
			}
			if deferCleansUp(pass.Info, enclosing) || resultReturned(pass.Info, enclosing, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s result is not cleaned up on error paths: defer os.Remove/os.RemoveAll in this function, or return the handle so the caller owns removal",
				lint.FuncKey(fn))
			return true
		})
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// deferCleansUp reports whether fn registers any defer whose call
// (including a deferred closure's body) reaches os.Remove or
// os.RemoveAll.
func deferCleansUp(info *types.Info, fn ast.Node) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if cf := calleeFunc(info, call); cf != nil {
					if k := lint.FuncKey(cf); k == "os.Remove" || k == "os.RemoveAll" {
						found = true
					}
				}
			}
			return !found
		})
		return !found
	})
	return found
}

// resultReturned reports whether a variable assigned from call is part
// of some return statement of fn — ownership transfer to the caller.
func resultReturned(info *types.Info, fn ast.Node, call *ast.CallExpr) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	// The objects the call's results land in.
	owned := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			if ast.Unparen(rhs) != call {
				continue
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !isErrorType(obj.Type()) {
					owned[obj] = true
				}
			}
		}
		return true
	})
	if len(owned) == 0 {
		return false
	}
	returned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if returned {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		ast.Inspect(ret, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && owned[info.Uses[id]] {
				returned = true
			}
			return !returned
		})
		return !returned
	})
	return returned
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
