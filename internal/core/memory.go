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
	// the node labeling. The run is a batch of one member reading slot 0
	// of a one-slot mask sidecar in RAM (DiskBatchOpts.AuxIn). Nil means
	// no auxiliary predicates.
	Aux func(v tree.NodeID) uint16

	// Index optionally supplies a subtree index with label signatures
	// over the tree (DB.Index of its record image, storage.OpenTree),
	// enabling selectivity-aware pruning: both passes jump over subtrees the engine's analysis proves
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
// on every call — sessions cache theirs — and runs the one driver over it
// as a batch of one, with the state file and the aux masks in RAM. Labels resolve
// against the engine's name table, whichever table the tree carries.
func RunTreeContext(ctx context.Context, e *Engine, t *tree.Tree, workers int, opts RunOpts) (*Result, error) {
	db, err := storage.OpenTree(t, opts.Index)
	if err != nil {
		return nil, err
	}
	db.Names = e.names
	bm := BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}
	bo := DiskBatchOpts{DiskOpts: DiskOpts{KeepStateFile: opts.KeepStates, NoPrune: opts.NoPrune || opts.Index == nil, Run: opts.Run}}
	if opts.Aux != nil {
		masks := make([]byte, db.N*storage.MaskSize)
		for v := range db.N {
			binary.BigEndian.PutUint16(masks[v*storage.MaskSize:], opts.Aux(tree.NodeID(v)))
		}
		bm.AuxInSlot, bo.AuxIn, bo.AuxInStride = 0, "aux", 1
		f, err := db.CreateScratch(bo.AuxIn, int64(len(masks)))
		if err != nil {
			return nil, err
		}
		if _, err := f.WriteAt(masks, 0); err != nil {
			return nil, err
		}
	}
	res, _, _, err := RunDiskBatchParallel(ctx, db, workers, []BatchMember{bm}, bo)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
