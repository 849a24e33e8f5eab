package core

import (
	"context"
	"encoding/binary"

	"arb/internal/storage"
	"arb/internal/tree"
)

// RunOpts configures an evaluation run over an in-memory tree.
type RunOpts struct {
	// KeepStates records the bottom-up and top-down state of every node
	// in the Result; used by tests, debugging and the marked-XML output
	// path.
	KeepStates bool
	// Aux supplies the auxiliary per-node predicate bitmask (Aux[k] holds
	// at v iff bit k of Aux(v) is set) — the paper's Section 7 mechanism
	// for exposing precomputed information to the automata as part of
	// the node labeling. The run reads it from a mask buffer, as a disk
	// run reads DiskOpts.AuxIn. Nil means no auxiliary predicates.
	Aux func(v tree.NodeID) uint16

	// Index optionally supplies a subtree index with label signatures
	// over the tree (storage.BuildTreeIndex), enabling selectivity-aware
	// pruning: both passes jump over subtrees the engine's analysis proves
	// irrelevant. Without one the run does not prune.
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
// Algorithm 4.6: RunTreeContext with one worker.
func (e *Engine) RunContext(ctx context.Context, t *tree.Tree, opts RunOpts) (*Result, error) {
	return RunTreeContext(ctx, e, t, 1, opts)
}

// RunTreeContext evaluates e's program over an in-memory tree with the
// given number of workers (<= 0: GOMAXPROCS). It is a thin adapter onto the
// one driver: it encodes the tree's record image (storage.OpenTree) afresh
// on every call — sessions cache theirs — and runs RunDiskParallelContext
// over it, with the state file and the aux masks in RAM. Labels resolve
// against the engine's name table, whichever table the tree carries.
func RunTreeContext(ctx context.Context, e *Engine, t *tree.Tree, workers int, opts RunOpts) (*Result, error) {
	db, err := storage.OpenTree(t, opts.Index)
	if err != nil {
		return nil, err
	}
	db.Names = e.names
	do := DiskOpts{KeepStateFile: opts.KeepStates, NoPrune: opts.NoPrune || opts.Index == nil, Run: opts.Run}
	if opts.Aux != nil {
		masks := make([]byte, db.N*storage.MaskSize)
		for v := range db.N {
			binary.BigEndian.PutUint16(masks[v*storage.MaskSize:], opts.Aux(tree.NodeID(v)))
		}
		do.AuxIn = "aux"
		f, err := db.CreateScratch(do.AuxIn, int64(len(masks)))
		if err != nil {
			return nil, err
		}
		if _, err := f.WriteAt(masks, 0); err != nil {
			return nil, err
		}
	}
	res, _, err := e.RunDiskParallelContext(ctx, db, workers, do)
	return res, err
}
