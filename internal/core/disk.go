package core

import (
	"context"
	"io"

	"arb/internal/storage"
)

// DiskOpts configures a secondary-storage evaluation run: a scalar run's
// options, and the per-run part of a batch run's (DiskBatchOpts), where
// MarkTo needs a batch of one member. The phase-1 state file is the
// paper's footnote 12, a temporary of the run: one state id per node,
// written in reverse preorder by phase 1 (node v's at offset (N-1-v)·w)
// and read back in preorder by phase 2. Its ids are the narrowest of 1, 2
// and 4 bytes the engine's automaton fits (a run whose lazily built
// automaton outgrows its width midway starts over with 4), and it is
// sparse wherever a prune plan skipped an extent. Every run's file is an
// anonymous scratch file of the database (storage.DB.CreateScratch), so
// concurrent runs over one database never collide.
type DiskOpts struct {
	// MarkTo, when non-nil, streams the document back out as XML during
	// phase 2 itself, with the nodes selected by query predicate
	// MarkQuery marked up — the system's default output mode
	// (Section 6.3), produced with no pass beyond the two scans.
	MarkTo    io.Writer
	MarkQuery int

	// NoPrune disables selectivity-aware scan pruning (prune.go) for this
	// run. Pruning is otherwise applied automatically whenever it is
	// provably sound; runs with aux input (BatchMember.AuxInSlot) or
	// marked output never prune.
	NoPrune bool

	// Run, when non-nil, receives this run's exact statistics (node
	// visits, prune savings, phase times, and the transitions its own
	// cache misses computed) — deterministic per-run attribution even
	// when executions overlap on one engine.
	Run *RunStats
}

// DiskStats reports the per-scan cost profile of a disk run, alongside the
// engine's cumulative Stats. StateBytes is the state-file bytes phase 1
// wrote (and phase 2 read back): the run's state width — 1, 2 or 4 bytes a
// node — times the nodes it scanned times its lanes that needed phase 2
// (one for a scalar run, usually one for a batch), so extents a prune plan
// skipped count for nothing. A one-scan pass (OneScan) writes no state:
// its StateBytes are zero, and so is its Phase2 (one backward scan) or its
// Phase1 (one forward scan). Unpruned, a run's passes read
// Phase1.Bytes + Phase2.Bytes == (2·passes − OneScan) × the database size.
type DiskStats struct {
	Phase1     storage.ScanStats
	Phase2     storage.ScanStats
	StateBytes int64
	// OneScan counts the passes that took one linear scan and created no
	// state file. A backward one omitted phase 2: every lane's selections
	// were decided by its bottom-up states (analysis.go). A forward one
	// omitted phase 1: every member's bottom-up states were decided by the
	// nodes' records (analysis.go), so phase 2 computed each from the
	// record it read. Phase1 stays zero for exactly the forward ones.
	OneScan int
}

// Merge folds another run's disk profile into this one (e.g. the passes
// of one multi-pass execution): scan costs merge per phase, temporary
// state bytes add up.
func (d *DiskStats) Merge(o DiskStats) {
	d.Phase1.Merge(o.Phase1)
	d.Phase2.Merge(o.Phase2)
	d.StateBytes += o.StateBytes
	d.OneScan += o.OneScan
}

// RunDiskContext evaluates the engine's program over a .arb database in
// secondary storage using Algorithm 4.6 with exactly two linear scans of
// the data (Proposition 5.1): phase 1 is one backward scan of the .arb
// file that streams the bottom-up state of every node to a temporary
// file; phase 2 is one forward scan of the .arb file that reads the state
// file backwards — yielding the phase-1 states in preorder — and computes
// the true predicates per node. Main memory holds only the two automata
// (computed lazily) and a stack bounded by the depth of the XML document.
// When a node's bottom-up state alone decides its selection (analysis.go)
// and the run writes no marked XML, phase 1 marks the selected nodes
// itself: the run is one backward scan, with no state file and no phase 2
// (DiskStats.OneScan). Otherwise, when a node's record alone decides its
// bottom-up state (analysis.go), phase 2 computes each state from the
// record it reads: the run is one forward scan, with no phase 1 and no
// state file. It is RunDiskParallelContext with one worker: the chunked
// driver run with an empty frontier, whose leader scans all of [0, N)
// itself.
// Cancelling ctx aborts the scan in progress with ctx.Err(); every run
// removes its state file.
func (e *Engine) RunDiskContext(ctx context.Context, db *storage.DB, opts DiskOpts) (*Result, *DiskStats, error) {
	return e.RunDiskParallelContext(ctx, db, 1, opts)
}
