package core

// Batch evaluation runs N compiled programs over one document during a
// single pair of linear scans. The scans are query-independent I/O — the
// paper's cost model is dominated by them — so a server fielding many
// concurrent queries amortises the passes across the whole workload, and
// multi-pass members read their earlier passes' selections as auxiliary
// predicate planes (AuxPlanes). Results are bit-identical to running each
// member alone. The members step in lanes (RunDiskBatch, pardisk.go), most
// of them sharing one product automaton (product.go) through the scalar
// run's window kernels — on disk and over a tree's record image alike.

// BatchMember is one query's engine inside a batch run, plus the wiring
// of its auxiliary predicates (the multi-pass XPath mechanism).
type BatchMember struct {
	E *Engine

	// AuxInSlot is the member's entry in DiskBatchOpts.Aux, whose planes
	// give every node its aux bits; negative means no aux input. A member
	// reading one steps in a lane of its own.
	AuxInSlot int
	// AuxOutSlot, when non-negative, makes a successful run publish the
	// nodes the member's first query predicate selects as plane AuxOutBit
	// of that entry of DiskBatchOpts.Aux.
	AuxOutSlot int
	AuxOutBit  uint8
}

// AuxPlanes is one multi-pass member's auxiliary predicates: plane b is
// the set of nodes that carry aux bit b (tmnf.UAux), a bitset over
// preorder node indices, one word per 64 nodes — the selection of the
// member's pass b.
type AuxPlanes [][]uint64

// bits returns node v's aux bits: bit b from plane b.
func (p AuxPlanes) bits(v int64) (extra uint16) {
	w, s := v/64, uint(v%64)
	for b, plane := range p {
		extra |= uint16(plane[w]>>s&1) << b
	}
	return extra
}

// DiskBatchOpts configures a secondary-storage batch run: the per-run
// options of DiskOpts plus the aux planes chaining multi-pass members'
// passes, one AuxPlanes a slot. The run reads the planes of its members'
// AuxInSlots, and a successful run sets the plane each aux-writing member
// publishes: the words of the member's own Result, not a copy. A failed or
// cancelled run leaves Aux as it found it. A batch prunes an extent only
// when every member's analysis proves it irrelevant (the scans are
// shared), and a run with aux input never prunes.
type DiskBatchOpts struct {
	DiskOpts
	Aux []AuxPlanes
	// Products, when set, keeps the lanes' product automata between the
	// batch's runs (xpath.Batch holds one per batch); nil builds each
	// run's products afresh.
	Products *Products
}
