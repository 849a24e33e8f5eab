// Package parallel is the multi-worker entry point for in-memory trees,
// an adapter onto the one driver that the benchmark's parallel probe
// times. Tree automata evaluate independently on disjoint subtrees (the
// paper's Sections 6.2 and 7), and every subtree of a preorder layout is
// one contiguous range — of tree indices as of .arb bytes — so an
// in-memory tree parallelises exactly as a database does: RunContext runs
// the one disk driver over the tree's record image, whose subtree index
// cuts the frontier of chunks the workers stream.
package parallel

import (
	"context"

	"arb/internal/core"
	"arb/internal/tree"
)

// RunContext evaluates the engine's compiled program over t using the
// given number of workers (0 = GOMAXPROCS): core.RunTreeContext. The
// result is identical to (*core.Engine).RunContext with the same options.
// Cancelling ctx aborts all workers promptly with ctx.Err().
func RunContext(ctx context.Context, e *core.Engine, t *tree.Tree, workers int, opts core.RunOpts) (*core.Result, error) {
	return core.RunTreeContext(ctx, e, t, workers, opts)
}
