package core

import (
	"context"
	"errors"
	"time"

	"arb/internal/storage"
	"arb/internal/tree"
)

// RunOpts configures an evaluation run.
type RunOpts struct {
	// KeepStates records the bottom-up and top-down state of every node
	// in the Result (in-memory runs only); used by tests, debugging and
	// the marked-XML output path.
	KeepStates bool
	// Aux supplies the auxiliary per-node predicate bitmask (Aux[k] holds
	// at v iff bit k of Aux(v) is set) — the paper's Section 7 mechanism
	// for exposing precomputed information to the automata as part of
	// the node labeling. The XPath frontend uses it for multi-pass
	// negation. Nil means no auxiliary predicates.
	Aux func(v tree.NodeID) uint16

	// Index optionally supplies a subtree index with label signatures
	// over the tree (storage.BuildTreeIndex; sessions cache one per
	// tree), enabling selectivity-aware pruning for in-memory runs: both
	// passes jump over subtrees the engine's analysis proves irrelevant.
	Index *storage.SubtreeIndex
	// NoPrune disables pruning even when Index is available. Runs with
	// Aux or KeepStates never prune.
	NoPrune bool
	// Run, when non-nil, receives this run's exact statistics (node
	// visits, prune savings, phase times, and the transitions its own
	// cache misses computed) — deterministic per-run attribution even
	// when executions overlap on one engine.
	Run *RunStats
}

// RunContext evaluates the engine's program over an in-memory tree using
// Algorithm 4.6: one bottom-up pass computing the run ρA of automaton A
// (reverse preorder — children of a node always follow it in preorder, so
// a single descending index loop is a bottom-up traversal), then one
// top-down pass computing the run ρB of automaton B (ascending index
// loop). The per-node work is two flat-table lookups once the lazy
// transition tables are warm. Cancelling ctx aborts either pass promptly
// with ctx.Err(). Runs of one engine may overlap: the shared automata
// tables are reached through a per-run StepCache over the engine's lock.
func (e *Engine) RunContext(ctx context.Context, t *tree.Tree, opts RunOpts) (*Result, error) {
	n := t.Len()
	if n == 0 {
		return nil, errors.New("core: empty tree")
	}
	cancel := storage.NewCanceller(ctx)
	res := NewResult(e.c.Prog, int64(n))

	// Selectivity-aware pruning: with a tree index available, both passes
	// jump over subtrees the static analysis proves irrelevant (the same
	// soundness conditions as on disk; see prune.go). KeepStates runs
	// never prune — the recorded per-node states must be complete.
	var prune *PrunePlan
	if !opts.NoPrune && opts.Aux == nil && !opts.KeepStates {
		prune = PlanPrune([]*Engine{e}, opts.Index, int64(n))
	}
	var exts []storage.Extent
	if prune != nil {
		exts = prune.Extents
	}
	cache := e.ShareTo(opts.Run).NewStepCache()

	// Phase 1: bottom-up run of A.
	start := time.Now()
	bu := make([]StateID, n)
	pe := len(exts) - 1
	for v := n - 1; v >= 0; v-- {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		if pe >= 0 && int64(v) == exts[pe].End()-1 {
			x := exts[pe]
			pe--
			bu[x.Root] = prune.Sub(0)
			v = int(x.Root) // the loop decrement steps past the extent
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		left, right := NoState, NoState
		if first != tree.None {
			left = bu[first]
		}
		if second != tree.None {
			right = bu[second]
		}
		rec := storage.Record{
			Label:     uint16(t.Label(tree.NodeID(v))),
			HasFirst:  first != tree.None,
			HasSecond: second != tree.None,
		}.Encode()
		var extra uint16
		if opts.Aux != nil {
			extra = opts.Aux(tree.NodeID(v))
		}
		bu[v] = cache.BUStep(left, right, cache.SigID(rec, v == 0, extra))
	}
	phase1 := time.Since(start)

	// Phase 2: top-down run of B over the ρA-labeled tree.
	start = time.Now()
	td := make([]StateID, n)
	td[0] = cache.RootTrueSet(bu[0])
	pi := 0
	for v := 0; v < n; v++ {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		if pi < len(exts) && int64(v) == exts[pi].Root {
			// Provably selection-free: nothing to mark, nothing below
			// needs a top-down state.
			v = int(exts[pi].End()) - 1 // the loop increment steps past
			pi++
			continue
		}
		if mask := cache.QueryMask(td[v]); mask != 0 {
			res.MarkMask(mask, int64(v))
		}
		if c := t.First(tree.NodeID(v)); c != tree.None {
			td[c] = cache.TDStep(td[v], bu[c], 1)
		}
		if c := t.Second(tree.NodeID(v)); c != tree.None {
			td[c] = cache.TDStep(td[v], bu[c], 2)
		}
	}
	phase2 := time.Since(start)
	e.addPhaseTimes(phase1, phase2)
	opts.Run.AddPhaseTimes(phase1, phase2)
	creditNodes([]*Engine{e}, opts.Run, int64(n), prune)

	if opts.KeepStates {
		res.BUStateOf = bu
		res.TDStateOf = td
	}
	return res, nil
}
