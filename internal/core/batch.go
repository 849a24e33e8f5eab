package core

// Batch evaluation runs N compiled programs over one document during a
// single pair of linear scans. The scans are query-independent I/O — the
// paper's cost model is dominated by them — so a server fielding many
// concurrent queries amortises the passes across the whole workload, and
// auxiliary predicate masks travel in one widened sidecar with a slot per
// member. Results are bit-identical to running each member alone. The
// members step in lanes (RunDiskBatch, pardisk.go), most of them sharing
// one product automaton (product.go) through the scalar run's window
// kernels — on disk and over a tree's record image alike.

// BatchMember is one query's engine inside a batch run, plus the wiring
// of its auxiliary predicate masks (the multi-pass XPath mechanism).
type BatchMember struct {
	E *Engine

	// AuxInSlot is the member's uint16 slot in the AuxIn sidecar; negative
	// means no aux input. A member reading one steps in a lane of its own.
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
