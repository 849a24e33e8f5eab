package core

import (
	"context"

	"arb/internal/storage"
	"arb/internal/tree"
)

// RunOpts configures an evaluation run over an in-memory tree. It has no
// settable value: a tree run is always the one driver, unpruned, with its
// statistics credited to the engine (Engine.Stats).
type RunOpts struct{}

// RunContext evaluates the engine's program over an in-memory tree using
// Algorithm 4.6: RunTreeContext with one worker.
func (e *Engine) RunContext(ctx context.Context, t *tree.Tree, opts RunOpts) (*Result, error) {
	return RunTreeContext(ctx, e, t, 1, opts)
}

// RunTreeContext evaluates e's program over an in-memory tree with the
// given number of workers (<= 0: GOMAXPROCS). It is a thin adapter onto the
// one driver: it encodes the tree's record image (storage.OpenTree) afresh
// on every call — sessions cache theirs — and runs the one driver over it
// unpruned, with the state file in RAM. Labels resolve against the
// engine's name table, whichever table the tree carries.
func RunTreeContext(ctx context.Context, e *Engine, t *tree.Tree, workers int, opts RunOpts) (*Result, error) {
	db, err := storage.OpenTree(t, nil)
	if err != nil {
		return nil, err
	}
	db.Names = e.names
	res, _, err := e.RunDiskParallelContext(ctx, db, workers, DiskOpts{NoPrune: true})
	return res, err
}
