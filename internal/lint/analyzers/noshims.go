package analyzers

import (
	"go/ast"
	"go/types"

	"arb/internal/lint"
)

// NoShims keeps the deprecated pre-context, pre-Session entry points
// from creeping back into library code, examples, or commands. The shims
// exist only so external users of earlier releases keep compiling; every
// in-repo caller must use the context-threaded, reentrant API. Uses are
// resolved through the type checker, so an unrelated method that happens
// to be called Run (e.g. the DFA simulator's) never trips the rule.
//
// Allowed exceptions: *_test.go files (not analyzed at all) and the shim
// definition files themselves, marked //arblint:shims.
var NoShims = &lint.Analyzer{
	Name: "noshims",
	Doc:  "deprecated shim entry points are forbidden outside tests and the shim files themselves",
	Run:  runNoShims,
}

// shimReplacements maps each deprecated entry point to the API that
// replaced it.
var shimReplacements = map[string]string{
	"arb/internal/core.Engine.Run":             "Engine.RunContext",
	"arb/internal/core.Engine.RunDisk":         "Engine.RunDiskContext",
	"arb/internal/core.Engine.RunDiskParallel": "Engine.RunDiskParallelContext",
	"arb/internal/xpath.Query.Eval":            "Query.Prepare + Prepared.ExecDisk",
	"arb/internal/xpath.Query.EvalDisk":        "Query.Prepare + Prepared.ExecDisk",
	"arb/internal/parallel.Run":                "parallel.RunContext",
	"arb.RunParallel":                          "Session.Prepare + PreparedQuery.Exec",
	"arb.NewEngine":                            "arb.NewSession",
	"arb.PreparedQuery.Count":                  "PreparedQuery.Exec + Result.Count",
}

func runNoShims(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.IsShimFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			key := funcKey(fn)
			if repl, ok := shimReplacements[key]; ok {
				pass.Reportf(id.Pos(), "%s is a deprecated shim: use %s", key, repl)
			}
			return true
		})
	}
	return nil
}
