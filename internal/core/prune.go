// Selectivity-aware scan pruning (this file) turns the engine's fixed
// two-full-scan cost into one proportional to query selectivity: the
// engine's analysis (analysis.go) proves which labels are irrelevant to the
// program and which bottom-up state s* every subtree of them folds to, and
// the drivers then seek past whole subtree extents whose label signature
// (carried by the v2 .idx sidecar, or by the index of a tree's record
// image) is disjoint from the live set, substituting s* in phase 1 and
// skipping the extent in phase 2.
//
// When the analysis withholds the verdict, the engine simply reads
// everything: pruning is a proof-carrying fast path, never a semantics
// change. Passes with auxiliary mask input never prune — aux bits vary per
// node and are not covered by the closure.
package core

import "arb/internal/storage"

// Pruning thresholds. Variables (not constants) so the package's tests
// can exercise the pruning machinery on small documents.
var (
	// pruneMinNodes is the document size below which drivers skip the
	// planning step entirely — seeking buys nothing on data this small.
	pruneMinNodes int64 = 1 << 15
	// pruneMinExtent is the smallest extent worth seeking past; skipping
	// tiny extents fragments the sequential scan for no I/O win.
	pruneMinExtent int64 = 1 << 12
)

// PrunePlan is the set of extents one execution may seek past, with the
// substitute bottom-up state per participating engine. A plan is computed
// against one specific document (the index's node count is checked), and
// is valid for any run of those engines over that document without aux
// input.
type PrunePlan struct {
	Extents []storage.Extent // sorted by Root, disjoint, none rooted at 0
	Nodes   int64            // total nodes covered by Extents
	subs    []StateID        // per engine, in PlanPrune order
}

// Sub returns the substitute bottom-up state for engine m of the plan.
func (p *PrunePlan) Sub(m int) StateID { return p.subs[m] }

// PlanPrune reads every engine's analysis (analysis.go) and selects the
// maximal index extents whose label signatures are disjoint from the
// union of the engines' live sets — an extent is only prunable if it is
// prunable for every engine sharing the scan. Returns nil (no pruning)
// when any engine's analysis fails, the index does not describe an
// n-node document, or no extent qualifies.
func PlanPrune(engines []*Engine, ix *storage.SubtreeIndex, n int64) *PrunePlan {
	if ix == nil || ix.N != n || n < pruneMinNodes {
		return nil
	}
	var live storage.LabelSig
	subs := make([]StateID, len(engines))
	for m, e := range engines {
		a := e.analysis()
		if !a.pruneOK {
			return nil
		}
		live.Or(a.live)
		subs[m] = a.sub
	}
	plan := &PrunePlan{subs: subs}
	lastEnd := int64(0)
	for _, ent := range ix.Entries() {
		if ent.V < lastEnd || ent.V == 0 || ent.Size < pruneMinExtent {
			continue
		}
		if ent.Labels.Intersects(live) {
			continue
		}
		plan.Extents = append(plan.Extents, storage.Extent{Root: ent.V, Size: ent.Size})
		plan.Nodes += ent.Size
		lastEnd = ent.V + ent.Size
	}
	if len(plan.Extents) == 0 {
		return nil
	}
	return plan
}

// splitPrune distributes a plan's extents over a frontier of worker
// tasks. Both lists are sorted families of subtree extents of one tree,
// so any two extents are nested or disjoint: tasks swallowed by a pruned
// extent are dropped (the leader skips the whole pruned extent), pruned
// extents strictly inside a task become that worker's in-chunk skip list,
// and the rest are holes in the leader's own scan.
func splitPrune(tasks, plan []storage.Extent) (kept []storage.Extent, inner [][]storage.Extent, outer []storage.Extent) {
	pi := 0
	for _, t := range tasks {
		for pi < len(plan) && plan[pi].End() <= t.Root {
			outer = append(outer, plan[pi])
			pi++
		}
		if pi < len(plan) && plan[pi].Root <= t.Root && plan[pi].End() >= t.End() {
			continue // task swallowed; the pruned extent stays pending
		}
		var in []storage.Extent
		for pi < len(plan) && plan[pi].End() <= t.End() {
			in = append(in, plan[pi])
			pi++
		}
		kept = append(kept, t)
		inner = append(inner, in)
	}
	outer = append(outer, plan[pi:]...)
	return kept, inner, outer
}

// mergeSkipLists interleaves surviving tasks and leader-pruned extents
// into one sorted skip list for the leader's scans. taskOf[i] is the
// index of exts[i] in tasks, or -1 for a pruned hole.
func mergeSkipLists(tasks, pruned []storage.Extent) (exts []storage.Extent, taskOf []int) {
	ti, pi := 0, 0
	for ti < len(tasks) || pi < len(pruned) {
		if pi >= len(pruned) || (ti < len(tasks) && tasks[ti].Root < pruned[pi].Root) {
			exts = append(exts, tasks[ti])
			taskOf = append(taskOf, ti)
			ti++
		} else {
			exts = append(exts, pruned[pi])
			taskOf = append(taskOf, -1)
			pi++
		}
	}
	return exts, taskOf
}
