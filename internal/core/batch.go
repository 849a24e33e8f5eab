package core

import (
	"context"
	"errors"
	"time"

	"arb/internal/storage"
	"arb/internal/tree"
)

// Batch evaluation runs N compiled programs over one document during a
// single pair of linear scans. The scans are query-independent I/O — the
// paper's cost model is dominated by them — so a server fielding many
// concurrent queries amortises the passes across the whole workload, and
// auxiliary predicate masks travel in one widened sidecar with a slot per
// member. Results are bit-identical to running each member alone. On disk
// (RunDiskBatch, pardisk.go) the members step in lanes, most of them
// sharing one product automaton (product.go) through the scalar run's
// window kernels; in memory (RunBatchTree, and internal/parallel) every
// member steps its own StepCache at every node.

// BatchMember is one query's engine inside a batch run, plus the wiring
// of its auxiliary predicate masks (the multi-pass XPath mechanism).
type BatchMember struct {
	E *Engine

	// Aux supplies the member's auxiliary mask for in-memory runs; nil
	// means no auxiliary predicates.
	Aux func(v tree.NodeID) uint16

	// AuxInSlot is the member's uint16 slot in the AuxIn sidecar of disk
	// runs; negative means no aux input. A member reading one steps in a
	// lane of its own.
	AuxInSlot int
	// AuxOutSlot, when non-negative, makes phase 2 write the member's
	// updated mask — the input mask ORed with bit AuxOutBit for every
	// node selected by query predicate AuxOutQuery — to that slot of the
	// AuxOut sidecar.
	AuxOutSlot  int
	AuxOutBit   uint8
	AuxOutQuery int
}

// DiskBatchOpts configures a secondary-storage batch run. The sidecar
// paths name widened aux-mask files (storage.MaskStride bytes per node);
// empty paths mean no aux input/output.
type DiskBatchOpts struct {
	AuxIn        string
	AuxInStride  int
	AuxOut       string
	AuxOutStride int

	// NoPrune disables selectivity-aware scan pruning for this round. A
	// batch round prunes an extent only when every member's analysis
	// proves it irrelevant (the scans are shared); rounds with aux input
	// never prune.
	NoPrune bool

	// Run, when non-nil, receives the round's exact statistics across
	// all members — deterministic per-run attribution even when batch
	// executions overlap on shared engines.
	Run *RunStats
}

// TreeBatchOpts configures an in-memory batch pass.
type TreeBatchOpts struct {
	// Index optionally supplies a subtree index with label signatures
	// over the tree (storage.BuildTreeIndex), enabling selectivity-aware
	// pruning: an extent is skipped only when every member's analysis
	// proves it irrelevant. Members with Aux set disable pruning for the
	// whole pass.
	Index *storage.SubtreeIndex
	// NoPrune disables pruning even when Index is available.
	NoPrune bool
	// Run, when non-nil, receives the pass's exact statistics across all
	// members — deterministic per-run attribution even when batch
	// executions overlap on shared engines.
	Run *RunStats
}

// RunBatchTree evaluates every member's program over an in-memory tree in
// one shared pair of passes: phase 1 walks the tree bottom-up once,
// stepping all member automata per node; phase 2 top-down likewise. The
// returned results (one per member, in member order) are identical to
// running each member's engine alone. The aggregate Stats carries the
// shared phase wall times; per-engine lazy-transition work lands in each
// member engine's own Stats as usual. Cancelling ctx aborts the pass in
// progress with ctx.Err().
func RunBatchTree(ctx context.Context, t *tree.Tree, members []BatchMember, topts TreeBatchOpts) ([]*Result, Stats, error) {
	var agg Stats
	n := t.Len()
	if n == 0 {
		return nil, agg, errors.New("core: empty tree")
	}
	nm := len(members)
	if nm == 0 {
		return nil, agg, errors.New("core: empty batch")
	}
	cancel := storage.NewCanceller(ctx)
	res := make([]*Result, nm)
	caches := make([]*StepCache, nm)
	prunable := !topts.NoPrune
	engines := make([]*Engine, nm)
	for m, bm := range members {
		res[m] = NewResult(bm.E.c.Prog, int64(n))
		caches[m] = bm.E.ShareTo(topts.Run).NewStepCache()
		engines[m] = bm.E
		if bm.Aux != nil {
			prunable = false
		}
	}
	var prune *PrunePlan
	if prunable {
		prune = PlanPrune(engines, topts.Index, int64(n))
	}
	var exts []storage.Extent
	if prune != nil {
		exts = prune.Extents
	}

	// Phase 1: one bottom-up pass, all members per node.
	start := time.Now()
	bu := make([]StateID, n*nm)
	pe := len(exts) - 1
	for v := n - 1; v >= 0; v-- {
		if err := cancel.Step(); err != nil {
			return nil, agg, err
		}
		if pe >= 0 && int64(v) == exts[pe].End()-1 {
			x := exts[pe]
			pe--
			for m := range members {
				bu[int(x.Root)*nm+m] = prune.Sub(m)
			}
			v = int(x.Root) // the loop decrement steps past the extent
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		rec := storage.Record{
			Label:     uint16(t.Label(tree.NodeID(v))),
			HasFirst:  first != tree.None,
			HasSecond: second != tree.None,
		}.Encode()
		root := v == 0
		for m, bm := range members {
			left, right := NoState, NoState
			if first != tree.None {
				left = bu[int(first)*nm+m]
			}
			if second != tree.None {
				right = bu[int(second)*nm+m]
			}
			var extra uint16
			if bm.Aux != nil {
				extra = bm.Aux(tree.NodeID(v))
			}
			c := caches[m]
			bu[v*nm+m] = c.BUStep(left, right, c.SigID(rec, root, extra))
		}
	}
	agg.Phase1Time = time.Since(start)

	// Phase 2: one top-down pass.
	start = time.Now()
	td := make([]StateID, n*nm)
	for m := range members {
		td[m] = caches[m].RootTrueSet(bu[m])
	}
	pi := 0
	for v := 0; v < n; v++ {
		if err := cancel.Step(); err != nil {
			return nil, agg, err
		}
		if pi < len(exts) && int64(v) == exts[pi].Root {
			v = int(exts[pi].End()) - 1 // the loop increment steps past
			pi++
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		for m := range members {
			c := caches[m]
			tdv := td[v*nm+m]
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
	agg.Phase2Time = time.Since(start)
	creditNodes(engines, topts.Run, int64(n), prune)
	return res, agg, nil
}
