package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"arb/internal/lint"
)

// LockOrder records, across the whole module, the order in which the
// declared mutexes (the ones lockdiscipline's `guarded by:` /
// `arblint:holds` annotations and Lock/Unlock calls name) are acquired,
// and flags any pair taken in both orders — the classic AB/BA deadlock
// shape that no single run of the race detector reliably provokes.
//
// Identity is (package path, mutex name), matching lockdiscipline's
// name-based model; pairs with the same qualified name are skipped
// (they may be distinct instances, e.g. per-Result vs per-Engine `mu`
// in the same package). Held sets propagate interprocedurally: calling
// a module function while holding A charges every mutex that callee
// may transitively acquire as ordered after A. A `defer mu.Unlock()`
// holds to function exit, so acquisitions after it still see the lock
// held — which is exactly how the code behaves.
//
// Edges accumulate in the module memo as packages are analyzed; an
// inversion is reported once, at the edge that completes the cycle,
// citing where the opposite order was first seen.
var LockOrder = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "mutex pairs must be acquired in one global order (AB/BA inversions deadlock)",
	Run:  runLockOrder,
}

// lockEdge is "a was held while b was acquired".
type lockEdge struct{ a, b string }

func runLockOrder(pass *lint.Pass) error {
	memo := pass.Mod.Memo("lockorder")
	edges, _ := memo["edges"].(map[lockEdge]token.Position)
	if edges == nil {
		edges = make(map[lockEdge]token.Position)
		memo["edges"] = edges
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var held []string
			for h := range holdsNames(fd.Doc) {
				held = append(held, qualifyMutex(pass, nil, h))
			}
			sort.Strings(held)
			lockOrderWalk(pass, fd.Body, held, edges, make(map[string]bool))
		}
	}
	return nil
}

// lockOrderWalk tracks the held set through one body in syntactic
// order, recording ordering edges at each acquisition. Nested function
// literals start from an empty held set only when deferred/asynchronous
// acquisition cannot be assumed — here we conservatively analyze them
// with the current held set, since immediately-invoked and
// synchronously-called literals dominate in this codebase.
func lockOrderWalk(pass *lint.Pass, body ast.Node, held []string, edges map[lockEdge]token.Position, seen map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock keeps the mutex held for the rest of the
			// function; a deferred Lock (rare) is not an acquisition here.
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if name := mutexName(pass, sel.X); name != "" {
						q := qualifyMutex(pass, sel.X, name)
						recordAcquire(pass, n.Pos(), q, held, edges)
						held = append(held, q)
						return true
					}
				case "Unlock", "RUnlock":
					if name := mutexName(pass, sel.X); name != "" {
						q := qualifyMutex(pass, sel.X, name)
						for i := len(held) - 1; i >= 0; i-- {
							if held[i] == q {
								held = append(held[:i:i], held[i+1:]...)
								break
							}
						}
						return true
					}
				}
			}
			// Interprocedural: everything the callee may acquire is
			// ordered after what we hold now.
			if fn := calleeFunc(pass.Info, n); fn != nil {
				for _, m := range mayAcquire(pass, fn, seen) {
					recordAcquire(pass, n.Pos(), m, held, edges)
				}
			}
		}
		return true
	})
}

// recordAcquire adds held→acquired edges and reports an inversion the
// moment the reverse edge already exists.
func recordAcquire(pass *lint.Pass, pos token.Pos, acquired string, held []string, edges map[lockEdge]token.Position) {
	for _, h := range held {
		if h == acquired {
			continue // same qualified name: possibly distinct instances
		}
		e := lockEdge{h, acquired}
		if _, ok := edges[e]; !ok {
			edges[e] = pass.Fset.Position(pos)
		}
		if rev, ok := edges[lockEdge{acquired, h}]; ok {
			pass.Reportf(pos,
				"lock order inversion: %s acquired while holding %s, but the opposite order is taken at %s",
				acquired, h, rev)
		}
	}
}

// mutexName extracts the receiver mutex's name from the expression a
// Lock call hangs off: mu, s.mu, e.res.mu → "mu". Non-mutex receivers
// (e.g. a type with its own Lock method) are filtered by type.
func mutexName(pass *lint.Pass, x ast.Expr) string {
	var id *ast.Ident
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	if t := pass.Info.TypeOf(x); t == nil || !isMutexType(t, pass.Pkg) {
		return ""
	}
	return id.Name
}

// qualifyMutex builds the module-wide identity of a mutex: the path of
// the package declaring the field/var (falling back to the current
// package), dot, its name.
func qualifyMutex(pass *lint.Pass, x ast.Expr, name string) string {
	pkgPath := pass.Pkg.Path()
	if x != nil {
		if obj := referencedObject(pass.Info, x); obj != nil && obj.Pkg() != nil {
			pkgPath = obj.Pkg().Path()
		}
	}
	return pkgPath + "." + name
}

// referencedObject resolves the variable or field an addressable
// expression names: the field object for s.mu, the var for mu.
func referencedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return referencedObject(info, e.X)
	}
	return nil
}

// isMutexType reports whether t (or *t) has a Lock method — sync.Mutex,
// sync.RWMutex, and locker-shaped named types.
func isMutexType(t types.Type, pkg *types.Package) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, "Lock")
	_, ok := obj.(*types.Func)
	return ok
}

// mayAcquire is the transitive summary of qualified mutex names fn may
// lock, memoized module-wide; cycles contribute what was discovered
// before re-entry.
func mayAcquire(pass *lint.Pass, fn *types.Func, seen map[string]bool) []string {
	key := lint.FuncKey(fn)
	memo := pass.Mod.Memo("lockorder")
	if v, ok := memo["may:"+key].([]string); ok {
		return v
	}
	if seen[key] {
		return nil
	}
	seen[key] = true
	fi := pass.Mod.Decl(fn)
	if fi == nil {
		return nil // outside the module
	}
	fpass := &lint.Pass{
		Analyzer: pass.Analyzer,
		Fset:     fi.Pkg.Fset,
		Files:    fi.Pkg.Files,
		Pkg:      fi.Pkg.Types,
		Info:     fi.Pkg.Info,
		Mod:      pass.Mod,
	}
	set := make(map[string]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				if name := mutexName(fpass, sel.X); name != "" {
					set[qualifyMutex(fpass, sel.X, name)] = true
					return true
				}
			}
		}
		if callee := calleeFunc(fi.Pkg.Info, call); callee != nil {
			for _, m := range mayAcquire(fpass, callee, seen) {
				set[m] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	memo["may:"+key] = out
	return out
}
