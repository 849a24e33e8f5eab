package core

import (
	"context"
	"io"
	"os"
	"path/filepath"

	"arb/internal/storage"
)

// DiskOpts configures a secondary-storage evaluation run: a scalar run's
// options, and the per-run part of a batch run's (DiskBatchOpts), where
// KeepStateFile and MarkTo need a batch of one member.
type DiskOpts struct {
	// KeepStateFile retains the phase-1 state file after a successful run
	// and reports its (unique) path as Result.StateFile; a failed run always
	// removes the file it created. The state file is the paper's footnote
	// 12: one state id per node, written in reverse preorder by phase 1
	// (node v's at offset (N-1-v)·w) and read back in preorder by phase 2.
	// A kept file holds 4-byte big-endian ids; a temporary one holds ids of
	// the narrowest of 1, 2 and 4 bytes the engine's automaton fits (a run
	// whose lazily built automaton outgrows its width midway starts over
	// with 4), and is sparse wherever a prune plan skipped an extent. Every
	// run's file is uniquely named next to the database, so concurrent runs
	// over one database — kept or not — never collide. Over a tree's
	// record image (storage.DB.InMemory) the run instead records every
	// node's states in Result.BUStateOf/TDStateOf, visiting the nodes in
	// order.
	KeepStateFile bool

	// MarkTo, when non-nil, streams the document back out as XML during
	// phase 2 itself, with the nodes selected by query predicate
	// MarkQuery marked up — the system's default output mode
	// (Section 6.3), produced with no pass beyond the two scans.
	MarkTo    io.Writer
	MarkQuery int

	// NoPrune disables selectivity-aware scan pruning (prune.go) for this
	// run. Pruning is otherwise applied automatically whenever it is
	// provably sound; runs with aux input (DiskBatchOpts.AuxIn), marked
	// output, or a kept state file never prune.
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
// its StateBytes and Phase2 are zero.
type DiskStats struct {
	Phase1     storage.ScanStats
	Phase2     storage.ScanStats
	StateBytes int64
	// OneScan counts the passes that omitted phase 2: every lane's
	// selections were decided by its bottom-up states (analysis.go), so
	// the pass created no state file and its Phase2 is zero.
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
// and the run writes no marked XML and keeps no states, phase 1 marks the selected nodes itself: the run is one
// backward scan, with no state file and no phase 2 (DiskStats.OneScan).
// It is RunDiskParallelContext with one worker: the chunked driver run
// with an empty frontier, whose leader scans all of [0, N) itself.
// Cancelling ctx aborts the scan in progress with ctx.Err(); a failed or
// cancelled run removes the temporary state file.
func (e *Engine) RunDiskContext(ctx context.Context, db *storage.DB, opts DiskOpts) (*Result, *DiskStats, error) {
	return e.RunDiskParallelContext(ctx, db, 1, opts)
}

// createStateFile opens the phase-1 state file for a run, size bytes: a
// buffer in RAM for a tree's record image, otherwise a unique temporary
// file next to the database, so two concurrent runs sharing a database
// directory never clobber each other's state. KeepStateFile runs use the
// same unique naming — the kept path is reported as Result.StateFile
// rather than through a fixed, discoverable name, so concurrent kept runs
// neither block nor overwrite one another.
func createStateFile(db *storage.DB, size int64) (storage.ScratchFile, string, error) {
	if db.InMemory() {
		f, err := db.CreateScratch("", size)
		return f, "", err
	}
	f, err := os.CreateTemp(filepath.Dir(db.Base), filepath.Base(db.Base)+"-*.sta")
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}
