//arblint:shims
// Deprecated context-less entry points kept for callers of earlier
// releases; in-repo code must not call them (enforced by noshims).

package xpath

import (
	"context"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tree"
)

// Eval evaluates the compiled query over an in-memory tree, returning the
// main pass's selected nodes as a truth vector over preorder ids.
//
// Deprecated: use Prepare and Prepared.ExecDisk over storage.OpenTree (or
// the arb package's Session/PreparedQuery API), which persist the compiled
// automata across executions, return the unified core.Result and support
// cancellation.
func (q *Query) Eval(t *tree.Tree) ([]bool, error) {
	db, err := storage.OpenTree(t, nil)
	if err != nil {
		return nil, err
	}
	p, err := q.Prepare(t.Names())
	if err != nil {
		return nil, err
	}
	res, _, err := p.ExecDisk(context.Background(), db, ExecOpts{Workers: 1})
	if err != nil {
		return nil, err
	}
	out := make([]bool, t.Len())
	res.Walk(p.Queries()[0], func(v tree.NodeID) bool {
		out[v] = true
		return true
	})
	return out, nil
}

// EvalDisk evaluates the compiled query over a .arb database entirely in
// secondary storage, with temporary aux sidecars under dir and the given
// number of workers per pass (1 = sequential, 0 = all CPUs).
//
// Deprecated: use Prepare and Prepared.ExecDisk (or the arb package's
// Session/PreparedQuery API), which persist the compiled automata across
// executions and support cancellation.
func (q *Query) EvalDisk(db *storage.DB, dir string, workers int) (*core.Result, error) {
	p, err := q.Prepare(db.Names)
	if err != nil {
		return nil, err
	}
	res, _, err := p.ExecDisk(context.Background(), db, ExecOpts{Workers: ResolveWorkers(workers), AuxDir: dir})
	if err != nil {
		return nil, err
	}
	return res, nil
}
