//arblint:shims
// Deprecated pre-Session entry points kept for callers of earlier
// releases; in-repo code (library, cmd/ and examples/ alike) must not
// call them — the noshims analyzer enforces it.

package arb

import (
	"arb/internal/core"
	"arb/internal/parallel"
)

// NewEngine compiles a program and prepares an engine for evaluating it
// against trees or databases using the given label-name table (use
// db.Names for databases, t.Names() for trees).
//
// Deprecated: use Session.Prepare, which binds the engine to the
// session's source and adds cancellation, parallel dispatch and
// multi-pass support behind one Exec call.
func NewEngine(p *Program, names *Names) (*Engine, error) {
	c, err := core.Compile(p)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(c, names), nil
}

// RunParallel evaluates the engine's program over an in-memory tree with
// multiple workers (0 = GOMAXPROCS): the one driver over the tree's record
// image (core.RunTreeContext). Results are identical to Engine.Run.
//
// Deprecated: use Session.Prepare and PreparedQuery.Exec with
// ExecOpts{Workers: n}.
func RunParallel(e *Engine, t *Tree, workers int) (*ParallelResult, error) {
	return parallel.Run(e, t, workers)
}
