package analyzers

import (
	"go/ast"
	"go/types"

	"arb/internal/lint"
)

// Ctxflow enforces the engine's cancellation discipline: inside
// internal/{storage,core,parallel,xpath,server}, non-test code must
// thread the caller's context.Context down to the scan loops. Two rules:
//
//  1. context.Background() and context.TODO() are forbidden — a minted
//     root context silently detaches a scan from the caller's deadline
//     and cancel signal (the Canceller polls ctx every cancelEvery
//     nodes, which is worthless if the ctx is not the caller's).
//  2. a function that receives a context.Context must not pass a nil
//     context onward — Fold*/Scan*/Run*Context callees must be handed
//     the incoming ctx, not an empty one.
var Ctxflow = &lint.Analyzer{
	Name: "ctxflow",
	Doc:  "engine code must forward the caller's context, never mint or drop one",
	Run:  runCtxflow,
}

// enginePkgs are the layers where every loop is (or calls) one of the
// two scans and must stay cancellable.
var enginePkgs = []string{
	"arb/internal/storage",
	"arb/internal/core",
	"arb/internal/parallel",
	"arb/internal/xpath",
	"arb/internal/server",
}

func inEngineScope(path string) bool {
	for _, p := range enginePkgs {
		if underPath(path, p) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func runCtxflow(pass *lint.Pass) error {
	if !inEngineScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// stack mirrors the traversal; ctx availability is that of the
		// innermost enclosing function, with closures inheriting from
		// their lexical environment.
		type frame struct {
			isFunc bool
			avail  bool
		}
		var stack []frame
		avail := func() bool {
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].isFunc {
					return stack[i].avail
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fr := frame{}
			switch n := n.(type) {
			case *ast.FuncDecl:
				fr = frame{isFunc: true, avail: hasCtxParam(pass.Info, n.Type)}
			case *ast.FuncLit:
				fr = frame{isFunc: true, avail: avail() || hasCtxParam(pass.Info, n.Type)}
			case *ast.CallExpr:
				checkCtxCall(pass, n, avail())
			}
			stack = append(stack, fr)
			return true
		})
	}
	return nil
}

func checkCtxCall(pass *lint.Pass, call *ast.CallExpr, ctxAvail bool) {
	if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s in engine code detaches the scan from the caller's cancellation: thread the incoming ctx", fn.Name())
		}
	}
	if !ctxAvail {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() || (sig.Variadic() && i >= sig.Params().Len()-1) {
			break
		}
		if isContextType(sig.Params().At(i).Type()) && pass.Info.Types[arg].IsNil() {
			pass.Reportf(arg.Pos(),
				"nil context passed to %s: the enclosing function has a context to forward", exprName(call.Fun))
		}
	}
}
