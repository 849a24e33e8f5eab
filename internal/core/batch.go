package core

import "arb/internal/storage"

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
	// node its first query predicate selects — to that slot of the
	// AuxOut sidecar.
	AuxOutSlot int
	AuxOutBit  uint8
}

// DiskBatchOpts configures a secondary-storage batch run: the per-run
// options of DiskOpts plus the aux-mask sidecars chaining multi-pass
// members' passes. The sidecars are scratch files of the database
// (storage.DB.CreateScratch) holding widened mask vectors of stride slots
// (storage.MaskStride bytes per node); nil means no aux input/output. The
// caller owns both: the run reads AuxIn and fills every node's vector of
// AuxOut, closing neither. A batch prunes an extent only when every
// member's analysis proves it irrelevant (the scans are shared), and a run
// with aux input never prunes.
type DiskBatchOpts struct {
	DiskOpts
	AuxIn        storage.ScratchFile
	AuxInStride  int
	AuxOut       storage.ScratchFile
	AuxOutStride int
}
