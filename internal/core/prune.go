// Selectivity-aware scan pruning (this file) turns the engine's fixed
// two-full-scan cost into one proportional to query selectivity: a static
// analysis over the compiled automata decides which label sets are
// provably irrelevant to the program, and the drivers then seek past
// whole subtree extents whose label signature (carried by the v2 .idx
// sidecar, or by the index of a tree's record image) is disjoint from the
// live set.
//
// Soundness rests on two facts established once per engine:
//
//  1. Dead-subtree convergence (bottom-up): labels the program's EDB
//     tests cannot distinguish collapse into class representatives (one
//     for characters, one for named labels). The set of bottom-up states
//     reachable by subtrees built only from dead labels is closed under
//     the transition function; when that closure is a single state s*,
//     every dead subtree — whatever its shape — folds to s*, so phase 1
//     may substitute s* without reading the extent.
//
//  2. Selection unreachability (top-down): propositional Horn derivation
//     is monotone, so entering a dead subtree from the ⊤ top-down state
//     (all local predicates true) over-approximates entering it from any
//     real parent state. If the top-down closure of {δB_k(⊤, s*)} under
//     δB_k(·, s*) contains no state with a query predicate, no node of
//     any dead subtree can ever be selected, in any context — phase 2 may
//     skip the extent entirely.
//
// When either analysis fails (the closure does not converge, is not a
// singleton, or a query predicate is reachable), the engine simply reads
// everything, as before: pruning is a proof-carrying fast path, never a
// semantics change. Passes with auxiliary mask input never prune — aux
// bits vary per node and are not covered by the closure.
package core

import (
	"arb/internal/edb"
	"arb/internal/horn"
	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Pruning thresholds. Variables (not constants) so tests and benchmarks
// can exercise the pruning machinery on small documents.
var (
	// PruneMinNodes is the document size below which drivers skip the
	// planning step entirely — seeking buys nothing on data this small.
	PruneMinNodes int64 = 1 << 15
	// PruneMinExtent is the smallest extent worth seeking past; skipping
	// tiny extents fragments the sequential scan for no I/O win.
	PruneMinExtent int64 = 1 << 12
)

// Closure caps: analysis gives up (disabling pruning, never correctness)
// if the dead-subtree state sets grow past these bounds. Real query
// automata converge within a handful of states.
const (
	deadBUCap = 16
	deadTDCap = 64
)

// pruneAnalysis is the per-engine static analysis result, computed once
// and cached (the automata tables it rests on only ever grow).
type pruneAnalysis struct {
	ok   bool             // the program admits label-based pruning
	live storage.LabelSig // labels that can influence the program
	sub  StateID          // the unique dead-subtree bottom-up state s*
}

// lockedPruneAnalysis runs pruneAnalysis under the engine's write lock,
// so plans may be computed while other runs of the engine are in flight.
func (e *Engine) lockedPruneAnalysis() *pruneAnalysis {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pruneAnalysis()
}

// pruneAnalysis computes (and caches) the engine's pruning analysis. It
// interns a few synthetic states and transitions into the engine's
// tables, so it must run while the caller holds the engine's write lock
// (lockedPruneAnalysis) or owns the engine exclusively.
//
// arblint:holds mu
func (e *Engine) pruneAnalysis() *pruneAnalysis {
	if e.prune != nil {
		return e.prune
	}
	a := &pruneAnalysis{}
	e.prune = a

	// Live labels: a label is live iff the EDB facts of a node carrying it
	// can differ from those of another label of the same class. Only
	// resolved Label[..]/char tests pin individual labels; Text
	// distinguishes the two classes, which the class representatives
	// below model; the structural tests are label-independent.
	liveLabels := map[tree.Label]bool{}
	for _, un := range e.c.Unaries {
		switch un.Kind {
		case tmnf.UAll, tmnf.URoot, tmnf.UHasFirstChild, tmnf.UHasSecondChild, tmnf.UText, tmnf.UAux:
			// Label-independent (root-ness and child flags are covered by
			// the shape closure; aux input disables pruning at the driver).
		case tmnf.ULabel, tmnf.UChar:
			if l, ok := edb.ResolveLabel(un, e.names); ok {
				liveLabels[l] = true
			}
			// An unresolvable label test holds on no node at all — it
			// cannot distinguish labels.
		default:
			return a // unknown unary kind: assume everything is live
		}
	}
	for l := range liveLabels {
		a.live.Add(uint16(l))
	}

	// Class representatives: one dead character and one dead named label.
	// A class with no dead member needs no representative — extents
	// containing that class always intersect the live set.
	var reps []tree.Label
	for c := 0; c < 256; c++ {
		if !liveLabels[tree.Label(c)] {
			reps = append(reps, tree.Label(c))
			break
		}
	}
	for l := 1<<14 - 1; l >= 256; l-- {
		if !liveLabels[tree.Label(l)] {
			reps = append(reps, tree.Label(l))
			break
		}
	}
	if len(reps) == 0 {
		return a
	}

	// Bottom-up closure: all states reachable by dead subtrees, over the
	// four child shapes and both class representatives. IsRoot is false
	// throughout — the planner never prunes an extent rooted at node 0.
	sig := func(rep tree.Label, hf, hs bool) int32 {
		return e.SigID(edb.NodeSig{Label: rep, HasFirst: hf, HasSecond: hs})
	}
	states := map[StateID]bool{}
	for _, rep := range reps {
		states[e.ReachableStates(NoState, NoState, sig(rep, false, false))] = true
	}
	for changed := true; changed; {
		changed = false
		cur := make([]StateID, 0, len(states))
		for s := range states {
			cur = append(cur, s)
		}
		add := func(s StateID) {
			if !states[s] {
				states[s] = true
				changed = true
			}
		}
		for _, rep := range reps {
			for _, s1 := range cur {
				add(e.ReachableStates(s1, NoState, sig(rep, true, false)))
				add(e.ReachableStates(NoState, s1, sig(rep, false, true)))
				for _, s2 := range cur {
					add(e.ReachableStates(s1, s2, sig(rep, true, true)))
				}
			}
		}
		if len(states) > deadBUCap {
			return a
		}
	}
	if len(states) != 1 {
		// Dead subtrees of different shapes fold to different states, so
		// no single substitute is sound.
		return a
	}
	var sub StateID
	for s := range states {
		sub = s
	}

	// Top-down closure from the ⊤ state. Horn derivation is monotone in
	// the parent's atom set, so every real top-down state inside a dead
	// subtree is a subset of some state in this closure; if none of them
	// contains a query predicate, neither can any real state.
	u := e.c.U
	atoms := make([]horn.Atom, u.NumIDB)
	for i := range atoms {
		atoms[i] = u.LocalAtom(i)
	}
	topState := e.internTD(atoms)
	seen := map[StateID]bool{}
	work := []StateID{}
	push := func(t StateID) {
		if !seen[t] {
			seen[t] = true
			work = append(work, t)
		}
	}
	push(e.TruePreds(topState, sub, 1))
	push(e.TruePreds(topState, sub, 2))
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if e.queryMask(t) != 0 {
			return a // a selection is reachable inside a dead subtree
		}
		if len(seen) > deadTDCap {
			return a
		}
		push(e.TruePreds(t, sub, 1))
		push(e.TruePreds(t, sub, 2))
	}

	a.ok = true
	a.sub = sub
	return a
}

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

// PhysicalSavings reports the physical bytes the plan's extents map to
// in db — on a block-compressed database the stored size of every block
// an extent touches, on a raw one the extents' record bytes. The scans
// themselves account the exact figure (a boundary block shared with
// live records is still read once); this is the planner's upper bound,
// what the stats surfaces report as "prunable physical bytes". Extent
// selection is deliberately logical: a sub-block extent still saves its
// share of decompression and per-node work even when its block must be
// read for neighbouring live records, so admission thresholds
// (PruneMinExtent) stay in node units on compressed databases too.
func (p *PrunePlan) PhysicalSavings(db *storage.DB) int64 {
	var sum int64
	for _, x := range p.Extents {
		sum += db.PhysSpan(x.Root, x.End())
	}
	return sum
}

// PlanPrune runs the pruning analysis for every engine and selects the
// maximal index extents whose label signatures are disjoint from the
// union of the engines' live sets — an extent is only prunable if it is
// prunable for every engine sharing the scan. Returns nil (no pruning)
// when any engine's analysis fails, the index does not describe an
// n-node document, or no extent qualifies.
func PlanPrune(engines []*Engine, ix *storage.SubtreeIndex, n int64) *PrunePlan {
	if ix == nil || ix.N != n || n < PruneMinNodes {
		return nil
	}
	var live storage.LabelSig
	subs := make([]StateID, len(engines))
	for m, e := range engines {
		a := e.lockedPruneAnalysis()
		if !a.ok {
			return nil
		}
		live.Or(a.live)
		subs[m] = a.sub
	}
	plan := &PrunePlan{subs: subs}
	lastEnd := int64(0)
	for _, ent := range ix.Entries() {
		if ent.V < lastEnd || ent.V == 0 || ent.Size < PruneMinExtent {
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
