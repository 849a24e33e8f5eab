package parallel

import (
	"context"
	"errors"
	"runtime"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tree"
)

// RunBatchContext evaluates a batch of member programs over t with a pool
// of workers, the in-memory counterpart of core.RunDiskBatchParallel: the
// tree is cut once into a frontier of subtrees and every worker runs the
// whole batch over each chunk it claims — one traversal per chunk, N
// engine steps per node — so the shared iteration the batch buys on disk
// (one pair of scans) is preserved as one pair of passes over the tree.
// Each worker keeps a private dense core.StepCache per member in front
// of the members' shared automata. Results are identical to
// core.RunBatchTree's. Cancelling ctx aborts all workers promptly.
func RunBatchContext(ctx context.Context, t *tree.Tree, workers int, members []core.BatchMember, topts core.TreeBatchOpts) ([]*core.Result, core.Stats, error) {
	var agg core.Stats
	n := t.Len()
	if n == 0 {
		return nil, agg, errors.New("parallel: empty tree")
	}
	nm := len(members)
	if nm == 0 {
		return nil, agg, errors.New("parallel: empty batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, agg, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Selectivity-aware pruning, planned while the member engines are
	// still exclusively ours (before Share): an extent is skipped only
	// when every member's analysis proves it irrelevant.
	prunable := !topts.NoPrune
	engines := make([]*core.Engine, nm)
	for m, bm := range members {
		engines[m] = bm.E
		if bm.Aux != nil {
			prunable = false
		}
	}
	var prune *core.PrunePlan
	if prunable {
		prune = core.PlanPrune(engines, topts.Index, int64(n))
	}
	var planExts []storage.Extent
	if prune != nil {
		planExts = prune.Extents
	}

	res := make([]*core.Result, nm)
	shared := make([]*core.SharedEngine, nm)
	for m, bm := range members {
		res[m] = core.NewResult(bm.E.Compiled().Prog, int64(n))
		shared[m] = bm.E.ShareTo(topts.Run)
	}

	size := SubtreeSizes(t)
	target := int32(n/(workers*4) + 1)
	if target < 256 {
		target = 256
	}
	tasks := Frontier(t, size, target)
	tasks, inner, outer := core.SplitPrune(tasks, planExts)
	inTask := make([]bool, n)
	for _, x := range tasks {
		inTask[x.Root] = true
	}
	skipAt := make(map[tree.NodeID]int64, len(outer))
	for _, x := range outer {
		skipAt[tree.NodeID(x.Root)] = x.Size
	}
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

	bu := make([]core.StateID, n*nm)
	td := make([]core.StateID, n*nm)
	for _, x := range planExts {
		for m := range members {
			bu[int(x.Root)*nm+m] = prune.Sub(m)
		}
	}

	poolWorkers := workers
	if poolWorkers > len(tasks) {
		poolWorkers = len(tasks)
	}
	caches := make([][]*core.StepCache, poolWorkers)
	for w := range caches {
		caches[w] = make([]*core.StepCache, nm)
		for m := range caches[w] {
			caches[w][m] = shared[m].NewStepCache()
		}
	}
	leader := make([]*core.StepCache, nm)
	for m := range leader {
		leader[m] = shared[m].NewStepCache()
	}

	buStep := func(cs []*core.StepCache, v tree.NodeID) {
		first, second := t.First(v), t.Second(v)
		rec := storage.Record{
			Label:     uint16(t.Label(v)),
			HasFirst:  first != tree.None,
			HasSecond: second != tree.None,
		}.Encode()
		root := v == 0
		for m, bm := range members {
			left, right := core.NoState, core.NoState
			if first != tree.None {
				left = bu[int(first)*nm+m]
			}
			if second != tree.None {
				right = bu[int(second)*nm+m]
			}
			var extra uint16
			if bm.Aux != nil {
				extra = bm.Aux(v)
			}
			c := cs[m]
			bu[int(v)*nm+m] = c.BUStep(left, right, c.SigID(rec, root, extra))
		}
	}

	// Phase 1: workers fold their subtrees bottom-up (disjoint ranges, no
	// synchronisation on bu), then the leader folds the top glue. Pruned
	// extents inside a chunk are jumped over (their roots already carry
	// the substitute vector).
	err := runTasks(ctx, poolWorkers, tasks, func(worker, i int, x storage.Extent) error {
		cs := caches[worker]
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
			buStep(cs, v)
		}
		return nil
	})
	if err != nil {
		return nil, agg, err
	}
	cancel := storage.NewCanceller(ctx)
	for i := len(top) - 1; i >= 0; i-- {
		if err := cancel.Step(); err != nil {
			return nil, agg, err
		}
		buStep(leader, top[i])
	}

	// Phase 2: leader walks the top region — marking directly, no workers
	// are running — then workers descend into their subtrees with private
	// per-chunk bitsets per member.
	for m := range members {
		td[m] = leader[m].RootTrueSet(bu[m])
	}
	for _, v := range top {
		if err := cancel.Step(); err != nil {
			return nil, agg, err
		}
		first, second := t.First(v), t.Second(v)
		for m := range members {
			c := leader[m]
			tdv := td[int(v)*nm+m]
			if mask := c.QueryMask(tdv); mask != 0 {
				res[m].MarkMask(mask, int64(v))
			}
			if first != tree.None {
				td[int(first)*nm+m] = c.TDStep(tdv, bu[int(first)*nm+m], 1)
			}
			if second != tree.None {
				td[int(second)*nm+m] = c.TDStep(tdv, bu[int(second)*nm+m], 2)
			}
		}
	}
	err = runTasks(ctx, poolWorkers, tasks, func(worker, i int, x storage.Extent) error {
		cs := caches[worker]
		w0 := x.Root / 64
		words := (x.End()-1)/64 - w0 + 1
		local := make([][][]uint64, nm)
		for m := range local {
			local[m] = make([][]uint64, len(res[m].Queries()))
			for qi := range local[m] {
				local[m][qi] = make([]uint64, words)
			}
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
			first, second := t.First(v), t.Second(v)
			for m := range members {
				c := cs[m]
				tdv := td[int(v)*nm+m]
				if mask := c.QueryMask(tdv); mask != 0 {
					for mm, qi := mask, 0; mm != 0; qi++ {
						if mm&1 != 0 {
							local[m][qi][int64(v)/64-w0] |= 1 << uint(v%64)
						}
						mm >>= 1
					}
				}
				if first != tree.None {
					td[int(first)*nm+m] = c.TDStep(tdv, bu[int(first)*nm+m], 1)
				}
				if second != tree.None {
					td[int(second)*nm+m] = c.TDStep(tdv, bu[int(second)*nm+m], 2)
				}
			}
		}
		for m := range local {
			for qi := range local[m] {
				res[m].MergeWords(qi, w0, local[m][qi])
			}
		}
		return nil
	})
	if err != nil {
		return nil, agg, err
	}
	for _, e := range engines {
		creditNodes(e, topts.Run, int64(n), prune)
	}
	return res, agg, nil
}
