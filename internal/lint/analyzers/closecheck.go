package analyzers

import (
	"go/ast"
	"go/types"

	"arb/internal/lint"
)

// CloseCheck enforces resource hygiene on the storage layer's open/scan
// primitives: a *storage.DB, *os.File or *BackwardReader obtained in
// library code must be closed or released on every path. BackwardReaders
// draw their I/O buffers from a shared pool — an abandoned reader
// quietly degrades the pool for every later scan, which is invisible in
// tests and expensive under serving load.
//
// A producer call passes if its result is closed/released (deferred or
// not), returned to the caller, passed to another function, or stored
// into a longer-lived structure (field, composite literal, channel) —
// anything that transfers ownership. A result that is discarded, or
// bound to a variable that is only ever read, is reported.
var CloseCheck = &lint.Analyzer{
	Name: "closecheck",
	Doc:  "storage readers and files must be closed or released on every path",
	Run:  runCloseCheck,
}

// closeProducers return values that own a releasable resource.
var closeProducers = map[string]bool{
	"arb/internal/storage.Open":              true,
	"arb/internal/storage.NewBackwardReader": true,
	"arb/internal/storage.OpenMaskFile":      true,
	"os.Open":                                true,
}

func runCloseCheck(pass *lint.Pass) error {
	if !libraryScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCloseInFunc(pass, fd)
		}
	}
	return nil
}

func checkCloseInFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	// Walk with a parent stack so each producer call can be classified by
	// the statement consuming it.
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass.Info, call); fn != nil && closeProducers[funcKey(fn)] {
				checkProducerCall(pass, fd, call, fn, stack)
			}
		}
		stack = append(stack, n)
		return true
	})
}

func checkProducerCall(pass *lint.Pass, fd *ast.FuncDecl, call *ast.CallExpr, fn *types.Func, stack []ast.Node) {
	var parent ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = stack[i]
		break
	}
	switch p := parent.(type) {
	case *ast.ReturnStmt:
		return // ownership transferred to the caller
	case *ast.CallExpr:
		return // handed straight to another function
	case *ast.AssignStmt:
		// The resource is the first (non-error) result.
		if len(p.Lhs) == 0 {
			break
		}
		id, ok := ast.Unparen(p.Lhs[0]).(*ast.Ident)
		if !ok || id.Name == "_" {
			break
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil && resourceHandled(pass.Info, fd, obj) {
			return
		}
	case *ast.ValueSpec:
		if len(p.Names) > 0 && p.Names[0].Name != "_" {
			if obj := pass.Info.Defs[p.Names[0]]; obj != nil && resourceHandled(pass.Info, fd, obj) {
				return
			}
		}
	}
	pass.Reportf(call.Pos(),
		"%s result is never closed: defer its Close/Release (or hand it off) so the resource is reclaimed on every path",
		funcKey(fn))
}

// resourceHandled reports whether obj is closed/released somewhere in fd,
// or escapes to an owner that can (returned, passed as an argument,
// stored into a structure, aliased).
func resourceHandled(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	handled := false
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if handled {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj && useHandlesResource(id, stack) {
			handled = true
		}
		stack = append(stack, n)
		return true
	})
	return handled
}

// useHandlesResource classifies one use of the resource variable given
// the ancestor stack (innermost last).
func useHandlesResource(id *ast.Ident, stack []ast.Node) bool {
	var parent ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = stack[i]
		break
	}
	// Anywhere under a return statement counts (return r, or return
	// wrap(r)).
	for _, anc := range stack {
		if _, ok := anc.(*ast.ReturnStmt); ok {
			return true
		}
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X == id && (p.Sel.Name == "Close" || p.Sel.Name == "Release") {
			return true
		}
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if ast.Unparen(arg) == ast.Expr(id) {
				return true // escapes into the callee
			}
		}
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if ast.Unparen(rhs) == ast.Expr(id) {
				return true // aliased or stored; the new name owns it
			}
		}
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true // stored into a longer-lived structure
	case *ast.UnaryExpr:
		return p.Op.String() == "&"
	}
	return false
}
