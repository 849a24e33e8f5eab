package storage

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Extent is a contiguous preorder node range [Root, Root+Size) of the
// .arb file — exactly the extent of one binary subtree rooted at Root.
// The corresponding byte range of the .arb file is
// [Root*NodeSize, (Root+Size)*NodeSize).
type Extent struct {
	Root int64
	Size int64
}

// End returns the exclusive upper node bound of the extent.
func (x Extent) End() int64 { return x.Root + x.Size }

// IndexEntry records the extent of one subtree plus the split point
// between its children: the first child (if any) spans
// [V+1, V+1+FirstSize) and the second child the rest of [V, V+Size).
// Label is the root's label, so an entry holds the root's whole record
// (Record): the child flags follow from Size and FirstSize. Labels
// summarises the set of labels occurring anywhere in the subtree (see
// LabelSig) — the evidence the selectivity-aware scan pruning uses to
// prove a whole extent irrelevant to a query without reading it. Size
// doubles as the node count of the extent.
type IndexEntry struct {
	V         int64  // preorder index of the subtree root
	Size      int64  // number of nodes in the subtree
	FirstSize int64  // size of the first-child subtree (0 if absent)
	Label     uint16 // the root's label
	Labels    LabelSig
}

// Record returns the record of the entry's root: its label, and the child
// flags its extent implies.
func (e IndexEntry) Record() Record {
	return Record{Label: e.Label, HasFirst: e.FirstSize > 0, HasSecond: e.Size-1-e.FirstSize > 0}
}

// SubtreeIndex holds the extents of the heaviest subtrees of a database —
// a rooted top fragment of the tree (a node's parent always has a
// strictly larger subtree, so the k largest subtrees form a connected
// fragment containing the root). It is the chunk index behind parallel
// secondary-storage evaluation: Cut partitions the .arb file into a
// frontier of contiguous subtree byte ranges without touching the data.
//
// The index is bounded (DefaultIndexBudget entries) regardless of
// database size, is built in one backward linear scan with memory
// proportional to the document depth, and can be persisted as a base.idx
// sidecar (v3: indexMagic) so later runs pay no extra scan at all. Each
// entry holds its root's whole record (IndexEntry.Record), so the window
// passes serve the gaps between skipped extents that the index holds
// whole from it instead of reading them — on a compressed database, with
// no block decode.
type SubtreeIndex struct {
	N       int64 // node count of the database the index describes
	entries []IndexEntry
	byV     map[int64]int
}

// DefaultIndexBudget is the default maximum number of index entries —
// small enough that the index is a footnote next to the database (96 KB
// on disk), large enough to cut thousands of chunks.
const DefaultIndexBudget = 4096

// entryHeap is a min-heap of index entries by subtree size.
type entryHeap []IndexEntry

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].Size < h[j].Size }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(IndexEntry)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// idxNode is the per-subtree fold state of index construction: the
// subtree's node count and the signature of all labels it contains.
type idxNode struct {
	size int64
	sig  LabelSig
}

// BuildIndex scans the database backwards once (stack bounded by the
// document depth, as in Proposition 5.1) and returns the index of its up
// to budget largest subtrees, each with its label signature. budget <= 0
// selects DefaultIndexBudget. A nil ctx (the contextless creation paths)
// never cancels. Records that do not form one binary tree fail with
// ErrMalformed.
func BuildIndex(ctx context.Context, db *DB, budget int) (*SubtreeIndex, error) {
	if budget <= 0 {
		budget = DefaultIndexBudget
	}
	h := make(entryHeap, 0, budget)
	var stack []idxNode // the folded subtrees after the current node, the first child's on top
	var st ScanStats
	err := db.BackwardWindows(ctx, 0, db.N, nil, nil, &st, nil, func(first int64, recs []byte) error {
		v := first + int64(len(recs)/NodeSize) - 1
		for i := len(recs) - NodeSize; i >= 0; i, v = i-NodeSize, v-1 {
			rec := DecodeRecord(binary.BigEndian.Uint16(recs[i:]))
			top := len(stack)
			n := idxNode{size: 1}
			n.sig.Add(rec.Label)
			var firstSize int64
			if rec.HasFirst {
				if top == 0 {
					return fmt.Errorf("%w: missing first subtree at node %d", ErrMalformed, v)
				}
				top--
				firstSize = stack[top].size
				n.size += stack[top].size
				n.sig.Or(stack[top].sig)
			}
			if rec.HasSecond {
				if top == 0 {
					return fmt.Errorf("%w: missing second subtree at node %d", ErrMalformed, v)
				}
				top--
				n.size += stack[top].size
				n.sig.Or(stack[top].sig)
			}
			stack = append(stack[:top], n)
			// Almost no node can enter a full heap, so test against its
			// minimum before touching it, and replace the minimum in place
			// otherwise. (Among subtrees of the minimum size, which ones are
			// kept is arbitrary.)
			switch {
			case len(h) < budget:
				heap.Push(&h, IndexEntry{V: v, Size: n.size, FirstSize: firstSize, Label: rec.Label, Labels: n.sig})
			case n.size > h[0].Size:
				h[0] = IndexEntry{V: v, Size: n.size, FirstSize: firstSize, Label: rec.Label, Labels: n.sig}
				heap.Fix(&h, 0)
			}
		}
		return nil
	})
	if err == nil && len(stack) != 1 {
		err = fmt.Errorf("%w: %d roots", ErrMalformed, len(stack))
	}
	if err != nil {
		return nil, err
	}
	entries := []IndexEntry(h)
	sort.Slice(entries, func(i, j int) bool { return entries[i].V < entries[j].V })
	return newIndex(db.N, entries), nil
}

// NewIndex builds a validated index from explicit entries, sorted by
// preorder root: the versioned extent store maintains each version's
// index incrementally (splicing fragment entries into the previous
// version's) and rehydrates it from the manifest through this
// constructor. The entries slice is retained. Validation enforces the
// structural invariants (sorted, in-bounds, laminar); whether the
// extents match the data is the caller's contract, exactly as with a
// persisted sidecar.
func NewIndex(n int64, entries []IndexEntry) (*SubtreeIndex, error) {
	ix := newIndex(n, entries)
	if err := ix.validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

func newIndex(n int64, entries []IndexEntry) *SubtreeIndex {
	byV := make(map[int64]int, len(entries))
	for i, e := range entries {
		byV[e.V] = i
	}
	return &SubtreeIndex{N: n, entries: entries, byV: byV}
}

// Len returns the number of indexed subtrees.
func (ix *SubtreeIndex) Len() int { return len(ix.entries) }

// Lookup returns the entry for the subtree rooted at v, if indexed.
func (ix *SubtreeIndex) Lookup(v int64) (IndexEntry, bool) {
	i, ok := ix.byV[v]
	if !ok {
		return IndexEntry{}, false
	}
	return ix.entries[i], true
}

// RootRecord returns the record of node v — a subtree root a pass stands
// in for, such as a chunk root a forward run needs before any pass reaches
// it — from ix when one of its entries roots at v (a nil ix holds none),
// and reads it otherwise.
func (db *DB) RootRecord(ix *SubtreeIndex, v int64) (Record, error) {
	if ix != nil {
		if e, ok := ix.Lookup(v); ok {
			return e.Record(), nil
		}
	}
	return db.RecordAt(v)
}

// span reports whether every node of [lo, hi) roots an entry of ix (a nil
// ix has none), and where lo's entry sits: the nodes' records are then
// those of the entries from there on. Entries are sorted by distinct V, so
// the first and last node's entries being hi-lo-1 apart proves every node
// in between one.
func (ix *SubtreeIndex) span(lo, hi int64) (int, bool) {
	if ix == nil || lo >= hi {
		return 0, false
	}
	i, ok := ix.byV[lo]
	j := i + int(hi-lo) - 1
	return i, ok && j < len(ix.entries) && ix.entries[j].V == hi-1
}

// records writes the records of the entries from position i on into p, one
// per NodeSize bytes, and returns the position after the last.
func (ix *SubtreeIndex) records(p []byte, i int) int {
	for k := 0; k < len(p); k, i = k+NodeSize, i+1 {
		binary.BigEndian.PutUint16(p[k:], ix.entries[i].Record().Encode())
	}
	return i
}

// Cut partitions the tree into a frontier of disjoint subtree extents,
// each a contiguous .arb byte range suitable for one worker: indexed
// subtrees are split until they are no larger than target, and subtrees
// smaller than minTask are left to the sequential top scan instead of
// becoming tasks of their own. Subtrees that exceed target but fall
// outside the index budget (deep in a degenerate tree) are emitted
// unsplit — on right-deep trees the frontier collapses and evaluation
// degrades toward sequential, which is the paper's reason for
// restructuring sequences into balanced infix trees.
//
// The returned extents are sorted by Root. Everything not covered by an
// extent is the "top" region that glues the frontier together.
func (ix *SubtreeIndex) Cut(target, minTask int64) []Extent {
	if ix.N == 0 || len(ix.entries) == 0 {
		return nil
	}
	if target < minTask {
		target = minTask
	}
	var tasks []Extent
	stack := []Extent{{Root: 0, Size: ix.N}}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.Size < minTask {
			continue // leave to the top scan
		}
		e, ok := ix.Lookup(x.Root)
		if ok && e.Size != x.Size {
			ok = false // stale or foreign index: don't split on bad data
		}
		if x.Size <= target || !ok {
			tasks = append(tasks, x)
			continue
		}
		if first := (Extent{Root: x.Root + 1, Size: e.FirstSize}); first.Size > 0 {
			stack = append(stack, first)
		}
		if second := (Extent{Root: x.Root + 1 + e.FirstSize, Size: x.Size - 1 - e.FirstSize}); second.Size > 0 {
			stack = append(stack, second)
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Root < tasks[j].Root })
	return tasks
}

// indexMagic identifies a v3 .idx sidecar file, the one format for raw
// and block-compressed databases alike (compression moves no node).
// indexMagicV2 (entries without their roots' labels) and indexMagicV1
// (without label signatures either) are retired formats, rejected on read
// so DB.Index transparently rebuilds (and replaces) stale sidecars; so is
// anything else, such as a sidecar carrying a container descriptor.
//
// After the magic come uint64 N, uint64 entry count, and per entry the
// root word (RootWord: the root's label in the top 16 bits, V below),
// uint64 Size, FirstSize and the label signature's words, all big-endian:
// indexEntryBytes bytes an entry, as many as in v2.
const (
	indexMagic      = "ARBIDX3\n"
	indexMagicV2    = "ARBIDX2\n"
	indexMagicV1    = "ARBIDX1\n"
	indexEntryBytes = int64(8 * (3 + len(LabelSig{})))
)

// rootShift places an entry's root label above its V in the entry's root
// word: node positions stay below 1<<48 (validate refuses an index of a
// larger database), so the top 16 bits are spare.
const rootShift = 48

// RootWord packs the entry's root — its label and its V — into the one
// 64-bit word the .idx sidecar and the vstore manifest store it in.
func (e IndexEntry) RootWord() uint64 { return uint64(e.Label)<<rootShift | uint64(e.V) }

// SetRootWord sets the entry's V and label from a root word (RootWord).
func (e *IndexEntry) SetRootWord(w uint64) {
	e.V, e.Label = int64(w&(1<<rootShift-1)), uint16(w>>rootShift)
}

// Entries exposes the index's entries, sorted by preorder root. The
// returned slice is the index's own storage — callers must not modify it.
func (ix *SubtreeIndex) Entries() []IndexEntry { return ix.entries }

// WriteIndexFile persists the index next to the database, committed
// through WriteFile: concurrent readers never see a torn sidecar, and the
// committed sidecar survives a crash.
func WriteIndexFile(path string, ix *SubtreeIndex) error {
	return WriteFile(path, func(f *os.File) error {
		w := bufio.NewWriterSize(f, 1<<16)
		if _, err := w.WriteString(indexMagic); err != nil {
			return err
		}
		put := func(v uint64) error {
			_, err := w.Write(binary.BigEndian.AppendUint64(w.AvailableBuffer(), v))
			return err
		}
		if err := put(uint64(ix.N)); err != nil {
			return err
		}
		if err := put(uint64(len(ix.entries))); err != nil {
			return err
		}
		for _, e := range ix.entries {
			if err := put(e.RootWord()); err != nil {
				return err
			}
			if err := put(uint64(e.Size)); err != nil {
				return err
			}
			if err := put(uint64(e.FirstSize)); err != nil {
				return err
			}
			for _, word := range e.Labels {
				if err := put(word); err != nil {
					return err
				}
			}
		}
		return w.Flush()
	})
}

// ReadIndexFile loads a persisted v3 index. Stale v1 and v2 sidecars (and
// anything else that is not a well-formed v3 index) are rejected with an
// error; DB.Index treats that as "no sidecar" and rebuilds from the
// data.
func ReadIndexFile(path string) (*SubtreeIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != indexMagic {
		switch string(magic) {
		case indexMagicV1:
			return nil, fmt.Errorf("storage: %s is a stale v1 index (no label signatures); rebuild required", path)
		case indexMagicV2:
			return nil, fmt.Errorf("storage: %s is a stale v2 index (no root labels); rebuild required", path)
		}
		return nil, fmt.Errorf("storage: %s is not an index file", path)
	}
	get := func() (int64, error) {
		b, err := r.Peek(8)
		if err != nil {
			return 0, err
		}
		v := int64(binary.BigEndian.Uint64(b))
		_, err = r.Discard(8)
		return v, err
	}
	n, err := get()
	if err != nil {
		return nil, err
	}
	count, err := get()
	if err != nil {
		return nil, err
	}
	// Bound the allocation by what the file can hold, so a corrupt count
	// fails here instead of after a huge make.
	left := st.Size() - int64(len(indexMagic)) - 16
	if count < 0 || count > 1<<24 || count > left/indexEntryBytes {
		return nil, fmt.Errorf("storage: index %s declares %d entries in %d bytes", path, count, left)
	}
	entries := make([]IndexEntry, count)
	for i := range entries {
		root, err := get()
		if err != nil {
			return nil, err
		}
		entries[i].SetRootWord(uint64(root))
		if entries[i].Size, err = get(); err != nil {
			return nil, err
		}
		if entries[i].FirstSize, err = get(); err != nil {
			return nil, err
		}
		for w := range entries[i].Labels {
			v, err := get()
			if err != nil {
				return nil, err
			}
			entries[i].Labels[w] = uint64(v)
		}
	}
	ix := newIndex(n, entries)
	if err := ix.validate(); err != nil {
		return nil, fmt.Errorf("storage: index %s: %w", path, err)
	}
	return ix, nil
}

// validate rejects structurally impossible indexes: unsorted or
// out-of-bounds entries, root labels outside the record's 14 bits, and
// entries that partially overlap (subtree extents must form a laminar
// family — nested or disjoint, never crossing). It cannot prove the index
// matches the tree: DB.Index checks a loaded sidecar's roots against the
// records (matches), and the rest — extents whose roots match but whose
// sizes do not, and the label signatures — is trusted; a chunk frontier
// cut from a wrong extent misses the records' structure (ErrBadExtent,
// after which that run rebuilds the index). Editing a database
// out-of-band requires RebuildIndex.
func (ix *SubtreeIndex) validate() error {
	if ix.N < 0 || ix.N >= 1<<rootShift {
		return fmt.Errorf("index of %d nodes", ix.N)
	}
	prev := int64(-1)
	var open []int64 // ends of enclosing extents, innermost last
	for _, e := range ix.entries {
		if e.V <= prev {
			return fmt.Errorf("entries unsorted at node %d", e.V)
		}
		prev = e.V
		if e.V < 0 || e.Size < 1 || e.FirstSize < 0 || e.FirstSize > e.Size-1 || e.V+e.Size > ix.N {
			return fmt.Errorf("entry {%d,%d,%d} out of bounds for %d nodes", e.V, e.Size, e.FirstSize, ix.N)
		}
		if e.Label > labelMask {
			return fmt.Errorf("entry at node %d has label %d", e.V, e.Label)
		}
		for len(open) > 0 && open[len(open)-1] <= e.V {
			open = open[:len(open)-1]
		}
		if len(open) > 0 && e.V+e.Size > open[len(open)-1] {
			return fmt.Errorf("entry [%d,%d) overlaps an extent ending at %d", e.V, e.V+e.Size, open[len(open)-1])
		}
		open = append(open, e.V+e.Size)
	}
	return nil
}

// Index returns the database's subtree index, loading base.idx if a
// sidecar with the database's node count whose every entry matches the
// record at its root exists, and otherwise building the index with one
// backward scan. The result is cached on the handle, so with a persisted
// index every later parallel run still performs exactly two linear scans'
// worth of I/O in aggregate. budget <= 0 selects DefaultIndexBudget.
// Cancelling ctx aborts a rebuild scan; a nil ctx never cancels.
//
// The window passes serve records from the index, so a sidecar is checked
// against the records before it is used, once per handle: every entry's
// label and child flags against the record at its root (matches). A
// sidecar of another file — say, a .arb copied over this one — fails
// that check and is rebuilt and rewritten like a stale one.
func (db *DB) Index(ctx context.Context, budget int) (ix *SubtreeIndex, err error) {
	db.idx.Do(func(cached **SubtreeIndex) {
		if *cached != nil {
			ix = *cached
			return
		}
		if !db.virtual {
			if ix, err = ReadIndexFile(db.Base + ".idx"); err == nil && ix.N == db.N {
				var ok bool
				if ok, err = db.matches(ctx, ix); ok {
					*cached = ix
					return
				}
			}
		}
		if ix, err = BuildIndex(ctx, db, budget); err != nil {
			ix = nil
			return
		}
		*cached = ix
		if !db.virtual {
			// Best-effort refresh of the sidecar (it was missing, stale — e.g.
			// a retired v2 file — or foreign): later opens then load the
			// index instead of paying the rebuild scan again. Read-only
			// directories simply keep serving from the in-handle cache.
			_ = WriteIndexFile(db.Base+".idx", ix)
		}
	})
	return ix, err
}

// matches reports whether every entry of ix agrees with the record at its
// root: its label, and the child flags its extent implies.
func (db *DB) matches(ctx context.Context, ix *SubtreeIndex) (bool, error) {
	ok := true
	err := db.rootRecords(ctx, ix.entries, func(e *IndexEntry, rec Record) bool {
		ok = rec == e.Record()
		return ok
	})
	return ok && err == nil, err
}

// LabelIndex sets every entry's label from the record at its root: an
// index read from a format that stored no labels (a v1 or v2 vstore
// manifest) becomes one the window passes can serve records from. ix must
// not be in use yet. A root whose child flags disagree with its entry's
// extent fails with ErrBadExtent.
func (db *DB) LabelIndex(ctx context.Context, ix *SubtreeIndex) error {
	var bad error
	err := db.rootRecords(ctx, ix.entries, func(e *IndexEntry, rec Record) bool {
		if e.Label = rec.Label; rec != e.Record() {
			bad = fmt.Errorf("%w: the index entry at node %d", ErrBadExtent, e.V)
		}
		return bad == nil
	})
	if err != nil {
		return err
	}
	return bad
}

// rootRecords hands the record at each entry's root to visit, in preorder,
// until visit returns false. Roots less than WindowNodes apart share one
// read, so the walk costs at most one read per entry, and on a
// block-compressed database decodes each block it touches once.
func (db *DB) rootRecords(ctx context.Context, entries []IndexEntry, visit func(e *IndexEntry, rec Record) bool) error {
	buf := scanBufPool.Get().([]byte)
	defer scanBufPool.Put(buf)
	for i := 0; i < len(entries); {
		if err := pollCtx(ctx); err != nil {
			return err
		}
		lo, j := entries[i].V, i+1
		for j < len(entries) && entries[j].V < lo+WindowNodes {
			j++
		}
		block := buf[:(entries[j-1].V+1-lo)*NodeSize]
		if n, err := db.arb.ReadAt(block, lo*NodeSize); n < len(block) {
			return fmt.Errorf("storage: reading index roots: %w", err)
		}
		for ; i < j; i++ {
			e := &entries[i]
			if !visit(e, DecodeRecord(binary.BigEndian.Uint16(block[(e.V-lo)*NodeSize:]))) {
				return nil
			}
		}
	}
	return nil
}

// setIndex installs ix as the database's cached subtree index.
func (db *DB) setIndex(ix *SubtreeIndex) {
	db.idx.Do(func(cached **SubtreeIndex) { *cached = ix })
}

// RebuildIndex discards any cached index, rebuilds from the data, and
// best-effort refreshes the base.idx sidecar — the recovery path when a
// stale or foreign index surfaces as ErrBadExtent during evaluation.
func (db *DB) RebuildIndex(ctx context.Context, budget int) (*SubtreeIndex, error) {
	ix, err := BuildIndex(ctx, db, budget)
	if err != nil {
		return nil, err
	}
	db.setIndex(ix)
	if !db.virtual {
		// The database directory may be read-only; the in-handle cache
		// alone then serves this process.
		_ = WriteIndexFile(db.Base+".idx", ix)
	}
	return ix, nil
}
