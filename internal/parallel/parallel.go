// Package parallel evaluates TMNF programs over in-memory trees with
// multiple workers, exploiting the intrinsic parallelism of tree automata
// the paper points out in Sections 6.2 and 7: runs on disjoint subtrees
// are completely independent, so both evaluation phases parallelise by
// splitting the tree at a frontier of subtrees.
//
// The binary-tree preorder layout makes the decomposition trivial — every
// subtree is a contiguous index range, expressed as storage.Extent so the
// same frontier vocabulary covers in-memory node ranges and on-disk byte
// ranges (core.Engine.RunDiskParallelContext is the secondary-storage
// counterpart, cutting its frontier from the database's subtree index).
// The two automata are shared through core.SharedEngine with a private
// core.StepCache per worker, so states computed by one worker are reused by
// all. On balanced trees (the ACGT-infix model; see the paper's
// discussion of parallel regular expression matching) phase work divides
// evenly; on degenerate right-deep trees (ACGT-flat) the frontier
// collapses to a few huge chains and parallelism yields nothing — which
// is exactly why the paper restructures sequences into balanced infix
// trees.
package parallel

import (
	"context"
	"errors"
	"runtime"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tree"
)

// Result is the unified result type shared with the sequential and disk
// evaluators; the former package-private result is retired.
//
// Deprecated: use core.Result (arb.Result) directly.
type Result = core.Result

// SubtreeSizes returns, for every node of t, the size of its binary
// subtree — the length of its contiguous preorder extent.
func SubtreeSizes(t *tree.Tree) []int32 {
	n := t.Len()
	size := make([]int32, n)
	for v := n - 1; v >= 0; v-- {
		size[v] = 1
		if c := t.First(tree.NodeID(v)); c != tree.None {
			size[v] += size[c]
		}
		if c := t.Second(tree.NodeID(v)); c != tree.None {
			size[v] += size[c]
		}
	}
	return size
}

// Frontier cuts the tree into maximal subtrees no larger than target
// nodes, returned as contiguous preorder extents (the same byte-range
// form the disk evaluator's storage.SubtreeIndex.Cut produces). Nodes not
// covered by an extent are the top region gluing the frontier together.
func Frontier(t *tree.Tree, size []int32, target int32) []storage.Extent {
	if target < 1 {
		target = 1
	}
	var tasks []storage.Extent
	// Iterative cut: an explicit stack, since degenerate (right-deep)
	// trees would overflow the goroutine stack with recursion.
	stack := []tree.NodeID{t.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if size[v] <= target {
			tasks = append(tasks, storage.Extent{Root: int64(v), Size: int64(size[v])})
			continue
		}
		if c := t.Second(v); c != tree.None {
			stack = append(stack, c)
		}
		if c := t.First(v); c != tree.None {
			stack = append(stack, c)
		}
	}
	return tasks
}

// RunContext evaluates the engine's compiled program over t using the
// given number of workers (0 = GOMAXPROCS). The result is identical to
// (*core.Engine).RunContext with the same options — the decomposition
// only changes the evaluation order within each phase, never the
// transition functions. opts.Aux supplies auxiliary predicate masks (the
// multi-pass XPath machinery); opts.KeepStates records the per-node
// automaton states in the result. Cancelling ctx aborts all workers
// promptly with ctx.Err().
func RunContext(ctx context.Context, e *core.Engine, t *tree.Tree, workers int, opts core.RunOpts) (*core.Result, error) {
	n := t.Len()
	if n == 0 {
		return nil, errors.New("parallel: empty tree")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Selectivity-aware pruning (planned before the engine is shared):
	// pruned extents vanish from the frontier, workers jump over pruned
	// subtrees inside their chunks, and the top scan skips the rest.
	var prune *core.PrunePlan
	if !opts.NoPrune && opts.Aux == nil && !opts.KeepStates {
		prune = core.PlanPrune([]*core.Engine{e}, opts.Index, int64(n))
	}
	var planExts []storage.Extent
	if prune != nil {
		planExts = prune.Extents
	}
	s := e.ShareTo(opts.Run)
	prog := e.Compiled().Prog
	res := core.NewResult(prog, int64(n))
	nq := len(prog.Queries())

	size := SubtreeSizes(t)

	// Frontier: maximal subtrees no larger than the per-task target.
	target := int32(n/(workers*4) + 1)
	if target < 256 {
		target = 256
	}
	tasks := Frontier(t, size, target)
	tasks, inner, outer := core.SplitPrune(tasks, planExts)
	inTask := make([]bool, n) // v begins a frontier subtree
	for _, x := range tasks {
		inTask[x.Root] = true
	}
	skipAt := make(map[tree.NodeID]int64, len(outer)) // pruned roots in the top region
	for _, x := range outer {
		skipAt[tree.NodeID(x.Root)] = x.Size
	}

	// Top nodes: everything not inside a frontier subtree or a pruned
	// extent, in preorder.
	var top []tree.NodeID
	{
		i := tree.NodeID(0)
		for i < tree.NodeID(n) {
			if inTask[i] {
				i += tree.NodeID(size[i])
				continue
			}
			if sz, ok := skipAt[i]; ok {
				i += tree.NodeID(sz)
				continue
			}
			top = append(top, i)
			i++
		}
	}

	bu := make([]core.StateID, n)
	td := make([]core.StateID, n)
	// Pruned subtree roots fold to the substitute state; parents read it,
	// nothing below is ever touched.
	for _, x := range planExts {
		bu[x.Root] = prune.Sub(0)
	}

	// Per-worker step caches in front of the shared engine, so the
	// warm steady state takes no locks at all; reused across both phases.
	poolWorkers := workers
	if poolWorkers > len(tasks) {
		poolWorkers = len(tasks)
	}
	caches := make([]*core.StepCache, poolWorkers)
	for i := range caches {
		caches[i] = s.NewStepCache()
	}

	// Phase 1: workers fold their subtrees bottom-up; ranges are
	// disjoint, so bu writes need no synchronisation. Pruned extents
	// inside a chunk are jumped over (their roots already carry the
	// substitute state).
	err := runTasks(ctx, poolWorkers, tasks, func(worker, i int, x storage.Extent) error {
		cache := caches[worker]
		cancel := storage.NewCanceller(ctx)
		in := inner[i]
		pe := len(in) - 1
		for v := tree.NodeID(x.End()) - 1; v >= tree.NodeID(x.Root); v-- {
			if err := cancel.Step(); err != nil {
				return err
			}
			if pe >= 0 && int64(v) == in[pe].End()-1 {
				v = tree.NodeID(in[pe].Root) // the loop decrement steps past
				pe--
				continue
			}
			bu[v] = buStep(cache, t, bu, v, opts.Aux)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Then the top part sequentially (its children are either top nodes
	// or frontier roots, all computed).
	topCache := s.NewStepCache()
	cancel := storage.NewCanceller(ctx)
	for i := len(top) - 1; i >= 0; i-- {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		v := top[i]
		bu[v] = buStep(topCache, t, bu, v, opts.Aux)
	}

	// Phase 2: top part first — marking directly on the result, which is
	// safe while no workers run — assigning the top-down states of
	// frontier roots; then workers descend into their subtrees,
	// accumulating marks in private per-task bitsets merged under the
	// result's lock (task boundaries may share a bitset word).
	td[0] = s.RootTrueSet(bu[0])
	for _, v := range top {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		if mask := topCache.QueryMask(td[v]); mask != 0 {
			res.MarkMask(mask, int64(v))
		}
		if c := t.First(v); c != tree.None {
			td[c] = topCache.TDStep(td[v], bu[c], 1)
		}
		if c := t.Second(v); c != tree.None {
			td[c] = topCache.TDStep(td[v], bu[c], 2)
		}
	}
	err = runTasks(ctx, poolWorkers, tasks, func(worker, i int, x storage.Extent) error {
		cache := caches[worker]
		w0 := x.Root / 64
		words := (x.End()-1)/64 - w0 + 1
		local := make([][]uint64, nq)
		for qi := range local {
			local[qi] = make([]uint64, words)
		}
		cancel := storage.NewCanceller(ctx)
		in := inner[i]
		pi := 0
		for v := tree.NodeID(x.Root); v < tree.NodeID(x.End()); v++ {
			if err := cancel.Step(); err != nil {
				return err
			}
			if pi < len(in) && int64(v) == in[pi].Root {
				v = tree.NodeID(in[pi].End()) - 1 // the loop increment steps past
				pi++
				continue
			}
			if mask := cache.QueryMask(td[v]); mask != 0 {
				for m, qi := mask, 0; m != 0; qi++ {
					if m&1 != 0 {
						local[qi][int64(v)/64-w0] |= 1 << uint(v%64)
					}
					m >>= 1
				}
			}
			if c := t.First(v); c != tree.None {
				td[c] = cache.TDStep(td[v], bu[c], 1)
			}
			if c := t.Second(v); c != tree.None {
				td[c] = cache.TDStep(td[v], bu[c], 2)
			}
		}
		for qi := range local {
			res.MergeWords(qi, w0, local[qi])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.KeepStates {
		res.BUStateOf = bu
		res.TDStateOf = td
	}
	creditNodes(e, opts.Run, int64(n), prune)
	return res, nil
}

// creditNodes records a finished run's node visits and prune savings with
// the engine and the run's sink: on success only, as the core drivers do —
// a cancelled run saved nothing.
func creditNodes(e *core.Engine, rs *core.RunStats, n int64, prune *core.PrunePlan) {
	e.AddNodes(n)
	rs.AddNodes(n)
	if prune != nil {
		e.AddPrunedNodes(prune.Nodes)
		rs.AddPrunedNodes(prune.Nodes)
	}
}

// buStep computes one bottom-up transition through the worker's cache.
func buStep(cache *core.StepCache, t *tree.Tree, bu []core.StateID, v tree.NodeID, aux func(tree.NodeID) uint16) core.StateID {
	first, second := t.First(v), t.Second(v)
	left, right := core.NoState, core.NoState
	if first != tree.None {
		left = bu[first]
	}
	if second != tree.None {
		right = bu[second]
	}
	rec := storage.Record{
		Label:     uint16(t.Label(v)),
		HasFirst:  first != tree.None,
		HasSecond: second != tree.None,
	}.Encode()
	var extra uint16
	if aux != nil {
		extra = aux(v)
	}
	return cache.BUStep(left, right, cache.SigID(rec, v == 0, extra))
}

// runTasks fans the extents out over core.RunPool's worker pool; run
// receives the worker id so each goroutine can use its private cache,
// and the task index so it can find its in-chunk prune list.
func runTasks(ctx context.Context, workers int, tasks []storage.Extent, run func(worker, i int, x storage.Extent) error) error {
	if len(tasks) == 0 {
		return nil
	}
	return core.RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		return run(worker, i, tasks[i])
	})
}
