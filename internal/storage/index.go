package storage

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// Labels summarises the set of labels occurring anywhere in the subtree
// (v2 sidecars; see LabelSig) — the evidence the selectivity-aware scan
// pruning uses to prove a whole extent irrelevant to a query without
// reading it. Size doubles as the node count of the extent.
type IndexEntry struct {
	V         int64 // preorder index of the subtree root
	Size      int64 // number of nodes in the subtree
	FirstSize int64 // size of the first-child subtree (0 if absent)
	Labels    LabelSig
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
// sidecar so later runs pay no extra scan at all.
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
// never cancels.
func BuildIndex(ctx context.Context, db *DB, budget int) (*SubtreeIndex, error) {
	if budget <= 0 {
		budget = DefaultIndexBudget
	}
	h := make(entryHeap, 0, budget)
	_, _, err := FoldBottomUp(ctx, db, func(first, second *idxNode, rec Record, v int64) idxNode {
		n := idxNode{size: 1}
		n.sig.Add(rec.Label)
		var firstSize int64
		if first != nil {
			n.size += first.size
			firstSize = first.size
			n.sig.Or(first.sig)
		}
		if second != nil {
			n.size += second.size
			n.sig.Or(second.sig)
		}
		// Almost no node can enter a full heap, so test against its minimum
		// before touching it, and replace the minimum in place otherwise.
		// (Among subtrees of the minimum size, which ones are kept is
		// arbitrary.)
		switch {
		case len(h) < budget:
			heap.Push(&h, IndexEntry{V: v, Size: n.size, FirstSize: firstSize, Labels: n.sig})
		case n.size > h[0].Size:
			h[0] = IndexEntry{V: v, Size: n.size, FirstSize: firstSize, Labels: n.sig}
			heap.Fix(&h, 0)
		}
		return n
	})
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

// indexMagic identifies a v2 .idx sidecar file, the one format for raw
// and block-compressed databases alike (compression moves no node).
// indexMagicV1 is the retired label-less format, rejected on read so
// DB.Index transparently rebuilds (and replaces) stale sidecars; so is
// anything else, such as a sidecar carrying a container descriptor.
//
// After the magic come uint64 N, uint64 entry count, and per entry
// uint64 V, Size, FirstSize and the label signature's words, all
// big-endian: indexEntryBytes bytes an entry.
const (
	indexMagic      = "ARBIDX2\n"
	indexMagicV1    = "ARBIDX1\n"
	indexEntryBytes = int64(8 * (3 + len(LabelSig{})))
)

// Entries exposes the index's entries, sorted by preorder root. The
// returned slice is the index's own storage — callers must not modify it.
func (ix *SubtreeIndex) Entries() []IndexEntry { return ix.entries }

// NewIndexForTest builds an index from explicit entries (validated), for
// tests that need precise synthetic extent layouts.
func NewIndexForTest(n int64, entries []IndexEntry) *SubtreeIndex {
	ix := newIndex(n, entries)
	if err := ix.validate(); err != nil {
		panic(err)
	}
	return ix
}

// WriteIndexFile persists the index next to the database. The file is
// written to a temporary name and renamed
// into place, so concurrent readers never see a torn sidecar, and the
// directory is synced so the committed sidecar survives a crash.
func WriteIndexFile(path string, ix *SubtreeIndex) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	renamed := false
	defer func() {
		if !renamed {
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	werr := func() error {
		if _, err := w.WriteString(indexMagic); err != nil {
			return err
		}
		var buf [8]byte
		put := func(v uint64) error {
			binary.BigEndian.PutUint64(buf[:], v)
			_, err := w.Write(buf[:])
			return err
		}
		if err := put(uint64(ix.N)); err != nil {
			return err
		}
		if err := put(uint64(len(ix.entries))); err != nil {
			return err
		}
		for _, e := range ix.entries {
			if err := put(uint64(e.V)); err != nil {
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
	}()
	if werr == nil {
		werr = f.Sync()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
		renamed = werr == nil
	}
	if werr == nil {
		werr = syncDir(filepath.Dir(path))
	}
	return werr
}

// ReadIndexFile loads a persisted v2 index. Stale v1 sidecars (and
// anything else that is not a well-formed v2 index) are rejected with an
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
		if string(magic) == indexMagicV1 {
			return nil, fmt.Errorf("storage: %s is a stale v1 index (no label signatures); rebuild required", path)
		}
		return nil, fmt.Errorf("storage: %s is not an index file", path)
	}
	var buf [8]byte
	get := func() (int64, error) {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		return int64(binary.BigEndian.Uint64(buf[:])), nil
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
		if entries[i].V, err = get(); err != nil {
			return nil, err
		}
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
// out-of-bounds entries, and entries that partially overlap (subtree
// extents must form a laminar family — nested or disjoint, never
// crossing). It cannot prove the index matches the tree — a well-formed
// but foreign sidecar surfaces as ErrBadExtent during evaluation instead,
// and RebuildIndex recovers from that. (Label signatures are likewise
// trusted: the sidecar is maintained by this package alongside the .arb
// file, and editing a database out-of-band requires RebuildIndex.)
func (ix *SubtreeIndex) validate() error {
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
// matching sidecar exists and otherwise building the index with one
// backward scan. The result is cached on the handle, so with a persisted
// index every later parallel run still performs exactly two linear scans'
// worth of I/O in aggregate. budget <= 0 selects DefaultIndexBudget.
// Cancelling ctx aborts a rebuild scan; a nil ctx never cancels.
func (db *DB) Index(ctx context.Context, budget int) (*SubtreeIndex, error) {
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	if db.idx != nil {
		return db.idx, nil
	}
	if !db.virtual {
		if ix, err := ReadIndexFile(db.Base + ".idx"); err == nil && ix.N == db.N {
			db.idx = ix
			return ix, nil
		}
	}
	ix, err := BuildIndex(ctx, db, budget)
	if err != nil {
		return nil, err
	}
	db.idx = ix
	if !db.virtual {
		// Best-effort refresh of the sidecar (it was missing, stale — e.g.
		// a retired v1 file — or foreign): later opens then load the
		// index instead of paying the rebuild scan again. Read-only
		// directories simply keep serving from the in-handle cache.
		_ = WriteIndexFile(db.Base+".idx", ix)
	}
	return ix, nil
}

// WriteIndex builds (or reuses) the database's subtree index and persists
// it as base.idx. Database creation calls this so that parallel
// evaluation needs no extra scan, ever; for databases created before the
// index existed, the first Index call rebuilds it transparently. A nil
// ctx (the contextless creation paths) never cancels.
func (db *DB) WriteIndex(ctx context.Context, budget int) error {
	ix, err := db.Index(ctx, budget)
	if err != nil {
		return err
	}
	if db.virtual {
		return nil // no single .arb file a sidecar could describe
	}
	return WriteIndexFile(db.Base+".idx", ix)
}

// RebuildIndex discards any cached index, rebuilds from the data, and
// best-effort refreshes the base.idx sidecar — the recovery path when a
// stale or foreign index surfaces as ErrBadExtent during evaluation.
func (db *DB) RebuildIndex(ctx context.Context, budget int) (*SubtreeIndex, error) {
	ix, err := BuildIndex(ctx, db, budget)
	if err != nil {
		return nil, err
	}
	db.idxMu.Lock()
	db.idx = ix
	db.idxMu.Unlock()
	if !db.virtual {
		// The database directory may be read-only; the in-handle cache
		// alone then serves this process.
		_ = WriteIndexFile(db.Base+".idx", ix)
	}
	return ix, nil
}
