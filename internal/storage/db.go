package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"arb/internal/guard"
	"arb/internal/tree"
)

// ErrBadExtent reports that a claimed subtree extent does not match the
// database's structure — the symptom of a stale or foreign chunk index
// (say, a .arb file swapped underneath its .idx sidecar). Callers can
// rebuild the index and retry.
var ErrBadExtent = errors.New("storage: extent does not match the database structure")

// DB is an open .arb database. All read paths use offset-addressed I/O
// (ReadAt), so one handle can serve any number of concurrent scans. The
// record source is any io.ReaderAt: a plain database reads one .arb
// file, a virtual database (NewVirtualDB — the versioned store's
// snapshots) reads a stitched view over several segment files. Every
// scan primitive works identically on both.
type DB struct {
	Base  string
	N     int64 // number of nodes
	Names *tree.Names

	arb    io.ReaderAt
	closer io.Closer // closed by Close; nil for virtual databases

	// comp is non-nil when the records come from a block-compressed
	// container (format v3): arb is then the container's logical-space
	// reader, and physical byte accounting consults the block table.
	comp *blockSource

	// virtual marks a database whose records do not come from a single
	// Base+".arb" file; sidecar index I/O (read and write) is suppressed
	// because no on-disk .idx can describe the stitched view.
	virtual bool

	// inRAM marks the record image of an in-memory tree (OpenTree), whose
	// scratch files are buffers in RAM (scratch.go).
	inRAM bool

	// idx is the subtree index, loaded or built on first use (Index).
	idx guard.Mutex[*SubtreeIndex]
}

// Open opens base.arb and base.lab. A block-compressed container
// (format v3, created by CompressInPlace or `arb create -compress`) is
// detected by its magic and served transparently: every scan primitive
// sees the same logical record space as a raw file.
func Open(base string) (*DB, error) {
	arbF, err := os.Open(base + ".arb")
	if err != nil {
		return nil, err
	}
	st, err := arbF.Stat()
	if err != nil {
		arbF.Close()
		return nil, err
	}
	db, err := openFrom(base, arbF, st.Size(), arbF)
	if err != nil {
		arbF.Close()
		return nil, err
	}
	return db, nil
}

// OpenReaderAt opens a database whose physical bytes are served by an
// arbitrary reader — the benchmark harness wraps base.arb in a
// bandwidth-limited reader this way. r must serve exactly the bytes of
// base.arb (raw records or a v3 container, sniffed as in Open), size
// physical bytes long; base.lab and base.idx sidecars are used as
// usual. The caller keeps ownership of whatever backs r; Close is a
// no-op.
func OpenReaderAt(base string, r io.ReaderAt, size int64) (*DB, error) {
	return openFrom(base, r, size, nil)
}

// openFrom builds the handle over a physical record source: container
// sniffing, then names. closer is what Close should release (nil when
// the caller owns the source).
func openFrom(base string, r io.ReaderAt, size int64, closer io.Closer) (*DB, error) {
	var (
		logical io.ReaderAt
		n       int64
		comp    *blockSource
	)
	if sniffContainer(r, size) {
		bs, err := openBlockSource(r, size)
		if err != nil {
			return nil, fmt.Errorf("storage: %s.arb: %w", base, err)
		}
		logical, n, comp = bs, bs.logical/NodeSize, bs
	} else {
		if size%NodeSize != 0 {
			return nil, fmt.Errorf("storage: %s.arb has size %d, not a multiple of %d", base, size, NodeSize)
		}
		logical, n = r, size/NodeSize
	}
	names := tree.NewNames()
	labF, err := os.Open(base + ".lab")
	if err == nil {
		names, err = tree.ReadNames(labF)
		labF.Close()
		if err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return &DB{Base: base, N: n, Names: names, arb: logical, closer: closer, comp: comp}, nil
}

// Compression reports the container summary of a compressed database,
// or ok=false for a raw one.
func (db *DB) Compression() (ContainerInfo, bool) {
	if db.comp == nil {
		return ContainerInfo{}, false
	}
	return db.comp.info(), true
}

// PhysSpan returns the physical bytes backing the node range [lo, hi) —
// what a scan of that range costs in disk reads. For a raw database
// that is exactly the logical record bytes; for a compressed one it is
// the stored size of every block the range touches (block-granular:
// reading any record of a block reads the whole stored block).
func (db *DB) PhysSpan(lo, hi int64) int64 {
	if hi > db.N {
		hi = db.N
	}
	if lo < 0 || lo >= hi {
		return 0
	}
	if db.comp != nil {
		return db.comp.physSpan(lo*NodeSize, hi*NodeSize)
	}
	return (hi - lo) * NodeSize
}

// RecordAt reads and decodes the single node record v — random access
// for callers that need a handful of labels without a scan (the result
// cache reads the labels of cached id lists this way). Served through
// the logical record space, so it is transparent for block-compressed
// and virtual databases alike.
func (db *DB) RecordAt(v int64) (Record, error) {
	if v < 0 || v >= db.N {
		return Record{}, fmt.Errorf("storage: record %d out of range [0, %d)", v, db.N)
	}
	var one [NodeSize]byte
	if _, err := db.arb.ReadAt(one[:], v*NodeSize); err != nil {
		return Record{}, err
	}
	return DecodeRecord(binary.BigEndian.Uint16(one[:])), nil
}

// NewVirtualDB wraps an arbitrary record source as a database handle: r
// must serve n nodes (n*NodeSize bytes) of well-formed preorder records
// via ReadAt. base anchors relative temp files (disk runs place their
// state files next to it) but names no actual .arb file; ix is the
// subtree index describing r (virtual databases never read or write .idx
// sidecars; nil builds one from r on first use). Closing a virtual DB is a
// no-op: the segment files behind r belong to whoever stitched it (the
// versioned store's snapshot refcounts).
func NewVirtualDB(base string, r io.ReaderAt, n int64, names *tree.Names, ix *SubtreeIndex) *DB {
	db := &DB{Base: base, N: n, Names: names, arb: r, virtual: true}
	db.setIndex(ix)
	return db
}

// OpenTree opens the record image of an in-memory tree as a database: the
// records CreateFromTree writes, 2 bytes a node, held in RAM, whose runs
// keep their scratch files in RAM too. ix is the tree's subtree index, or
// nil to build one from the image on first use. The records say only
// whether a node has children, so they stand for t only when t is laid out
// in preorder (tree.CheckPreorder); any other tree (or an empty one) fails
// here rather than be answered for as the tree its records spell. The
// failure still comes with a database of t's length and names, whose every
// read fails with it, for a caller that must hand out a handle regardless.
func OpenTree(t *tree.Tree, ix *SubtreeIndex) (*DB, error) {
	img, err := treeImage(t)
	var r io.ReaderAt = bytes.NewReader(img)
	if err != nil {
		r = failedImage{err}
	}
	db := NewVirtualDB("", r, int64(t.Len()), t.Names(), ix)
	db.inRAM = true
	return db, err
}

// failedImage is the record source of a tree that has no record image:
// every read fails with the reason.
type failedImage struct{ err error }

func (f failedImage) ReadAt([]byte, int64) (int, error) { return 0, f.err }

// Close releases the database's file handle (a no-op for virtual
// databases, whose segment files are owned by the versioned store).
func (db *DB) Close() error {
	if db.closer == nil {
		return nil
	}
	return db.closer.Close()
}

// ScanStats reports the cost profile of one linear scan, used to verify
// Proposition 5.1 (stack bounded by the document depth).
type ScanStats struct {
	Nodes    int64
	MaxStack int
	// Bytes counts the .arb record bytes this scan actually read. Skipped
	// extents (the leader's view of chunks scanned by workers) contribute
	// to Nodes but not Bytes, so merging a parallel run's scanners yields
	// exactly the database size per aggregate linear scan — the counter
	// behind the "two linear scans, even batched and parallel" claim.
	Bytes int64
	// SkippedBytes counts the .arb record bytes the scan seeked past
	// because selectivity-aware pruning proved the extents irrelevant to
	// the query. Pruning turns the fixed two-full-scan cost into one
	// proportional to query selectivity; the invariant becomes
	// Bytes + SkippedBytes == database size per aggregate linear scan.
	SkippedBytes int64
	// PhysicalBytes counts the bytes actually read from the physical
	// medium for the regions this scan covered. On a raw database it
	// equals Bytes; on a block-compressed one it is the stored size of
	// every block the scanned regions touched — the number that makes
	// compression's I/O saving visible next to the logical counters.
	// (Block granularity means two scans sharing a boundary block each
	// count its stored bytes; a clean full scan counts every block
	// exactly once.)
	PhysicalBytes int64
}

// Merge folds the stats of a concurrent scanner into the aggregate: node
// and byte counts add up, the stack bound is the maximum over scanners.
func (s *ScanStats) Merge(o ScanStats) {
	s.Nodes += o.Nodes
	s.Bytes += o.Bytes
	s.SkippedBytes += o.SkippedBytes
	s.PhysicalBytes += o.PhysicalBytes
	if o.MaxStack > s.MaxStack {
		s.MaxStack = o.MaxStack
	}
}

// cancelEvery is the node granularity of the context-cancellation checks
// inside the scan loops: coarse enough that the check is invisible in the
// per-node cost, fine enough that scans of huge databases abort promptly.
const cancelEvery = 8192

// Canceller polls ctx.Err() once per cancelEvery steps (plus once up
// front, so an already-cancelled context never starts a loop): the window
// passes' granularity, for the per-node loops outside them — the
// versioned store's patch and compaction copies.
type Canceller struct {
	ctx  context.Context
	left int
}

// NewCanceller returns a canceller for ctx. A nil ctx never cancels: it
// is the explicit signal of the contextless creation paths (database
// builds have no context in their API), not a shorthand for Background —
// evaluation paths must always thread the caller's context. Two ci.sh
// ratchets hold internal/ to that: no context.Background or
// context.TODO, and no call with a literal nil first of several
// arguments but create's BuildIndex(nil, db, 0).
func NewCanceller(ctx context.Context) Canceller {
	return Canceller{ctx: ctx}
}

// Step counts one loop iteration and returns ctx.Err() at every check
// point (nil otherwise).
func (c *Canceller) Step() error {
	c.left--
	if c.left > 0 {
		return nil
	}
	c.left = cancelEvery
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// backFold is the generic consumer of a backward pass: a stack of subtree
// results driven by one record at a time, in reverse preorder, calling
// combine per node.
type backFold[S any] struct {
	combine func(first, second *S, rec Record, v int64) S
	stack   []S
	stats   ScanStats
}

func (f *backFold[S]) node(rec Record, v int64) error {
	var first, second *S
	if rec.HasFirst {
		if len(f.stack) == 0 {
			return fmt.Errorf("%w: missing first subtree at node %d", ErrMalformed, v)
		}
		first = &f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
	}
	if rec.HasSecond {
		if len(f.stack) == 0 {
			return fmt.Errorf("%w: missing second subtree at node %d", ErrMalformed, v)
		}
		second = &f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
	}
	f.stack = append(f.stack, f.combine(first, second, rec, v))
	f.stats.MaxStack = max(f.stats.MaxStack, len(f.stack))
	f.stats.Nodes++
	return nil
}

// run folds the node range [lo, hi) — the adapter from BackwardWindows to
// FoldBottomUp.
func (f *backFold[S]) run(ctx context.Context, db *DB, lo, hi int64) error {
	return db.BackwardWindows(ctx, lo, hi, nil, &f.stats, nil,
		func(first int64, recs []byte) error {
			v := first + int64(len(recs)/NodeSize) - 1
			for i := len(recs) - NodeSize; i >= 0; i -= NodeSize {
				if err := f.node(DecodeRecord(binary.BigEndian.Uint16(recs[i:])), v); err != nil {
					return err
				}
				v--
			}
			return nil
		})
}

// FoldBottomUp traverses the database bottom-up in one backward linear
// scan of the .arb file (Proposition 5.1), combining child results into
// parent results. combine is called exactly once per node, in reverse
// preorder, with the results of the node's first and second child (nil
// for absent children) and the node's record and preorder index. It
// returns the root's result. Cancelling ctx makes the scan return
// ctx.Err() promptly (checked every few thousand nodes).
func FoldBottomUp[S any](ctx context.Context, db *DB, combine func(first, second *S, rec Record, v int64) S) (S, ScanStats, error) {
	var zero S
	f := backFold[S]{combine: combine}
	if err := f.run(ctx, db, 0, db.N); err != nil {
		return zero, f.stats, err
	}
	if len(f.stack) != 1 {
		return zero, f.stats, fmt.Errorf("%w: %d roots", ErrMalformed, len(f.stack))
	}
	return f.stack[0], f.stats, nil
}

// topDown is the generic consumer of a forward pass: it tracks, per node
// in preorder, which previously visited node is its parent and whether it
// is a first or second child, calling visit per node. end is the exclusive
// node bound of the scanned region (the structure check).
type topDown[S any] struct {
	visit     func(v int64, rec Record, parent *S, k int) (S, error)
	end       int64
	pending   []S // nodes awaiting their second subtree
	parent    *S
	parentVal S
	k         int
	stats     ScanStats
}

// afterSubtree restores parent/k once the subtree preceding position next
// has been fully consumed.
func (t *topDown[S]) afterSubtree(next int64) error {
	if len(t.pending) > 0 {
		t.parentVal = t.pending[len(t.pending)-1]
		t.pending = t.pending[:len(t.pending)-1]
		t.parent = &t.parentVal
		t.k = 2
		return nil
	}
	t.parent = nil
	t.k = 0
	if next != t.end {
		return fmt.Errorf("%w: scan ended at node %d of %d", ErrMalformed, next-1, t.end)
	}
	return nil
}

func (t *topDown[S]) node(v int64, rec Record) error {
	s, err := t.visit(v, rec, t.parent, t.k)
	if err != nil {
		return err
	}
	t.stats.Nodes++
	if rec.HasSecond {
		t.pending = append(t.pending, s)
		if len(t.pending) > t.stats.MaxStack {
			t.stats.MaxStack = len(t.pending)
		}
	}
	if rec.HasFirst {
		t.parentVal = s
		t.parent = &t.parentVal
		t.k = 1
		return nil
	}
	return t.afterSubtree(v + 1)
}

// run scans the node range [lo, hi) with holes at the skip extents — the
// adapter from ForwardWindows to the per-node ScanTopDown* entry points.
func (t *topDown[S]) run(ctx context.Context, db *DB, lo, hi int64, skip []Extent, subtree func(x Extent, parent *S, k int) error) error {
	return db.ForwardWindows(ctx, lo, hi, skip, &t.stats,
		func(x Extent) error {
			if err := subtree(x, t.parent, t.k); err != nil {
				return err
			}
			t.stats.Nodes += x.Size
			return t.afterSubtree(x.End())
		},
		func(first int64, recs []byte) error {
			for i := 0; i < len(recs); i += NodeSize {
				if err := t.node(first+int64(i/NodeSize), DecodeRecord(binary.BigEndian.Uint16(recs[i:]))); err != nil {
					return err
				}
			}
			return nil
		})
}

// ScanTopDown traverses the database top-down in one forward linear scan
// of the .arb file (Proposition 5.1). visit is called exactly once per
// node in preorder; for the root, parent is nil and k is 0; otherwise
// parent is the value visit returned for the node's parent and k tells
// whether the node is the first (1) or second (2) child. The stack holds
// one entry per ancestor whose second subtree is still pending.
// Cancelling ctx makes the scan return ctx.Err() promptly.
func ScanTopDown[S any](ctx context.Context, db *DB, visit func(v int64, rec Record, parent *S, k int) (S, error)) (ScanStats, error) {
	return ScanTopDownSkipping(ctx, db, nil, nil, visit)
}

// ScanTopDownSkipping is ScanTopDown with holes: the subtree extents in
// skip (sorted by Root, disjoint) are not read; instead subtree is called
// once per extent with the parent value and child position its root would
// have received, and the scan continues past the extent as if visit had
// consumed it. The parallel evaluator's leader uses it to assign top-down
// entry states to the frontier chunks without reading their bytes.
func ScanTopDownSkipping[S any](ctx context.Context, db *DB, skip []Extent, subtree func(x Extent, parent *S, k int) error, visit func(v int64, rec Record, parent *S, k int) (S, error)) (ScanStats, error) {
	t := topDown[S]{visit: visit, end: db.N}
	if err := t.run(ctx, db, 0, db.N, skip, subtree); err != nil {
		return t.stats, err
	}
	if t.parent != nil || len(t.pending) > 0 {
		return t.stats, fmt.Errorf("%w: %d announced subtrees missing at end of file", ErrMalformed, len(t.pending)+1)
	}
	return t.stats, nil
}

// ReadTree materialises the whole database as an in-memory tree. Intended
// for tests and small databases.
func (db *DB) ReadTree(ctx context.Context) (*tree.Tree, error) {
	t := tree.New(db.Names)
	type frame struct {
		parent tree.NodeID
		k      int
	}
	_, err := ScanTopDown(ctx, db, func(v int64, rec Record, parent *frame, k int) (frame, error) {
		id := t.AddNode(tree.Label(rec.Label))
		if parent != nil {
			if k == 1 {
				t.SetFirst(parent.parent, id)
			} else {
				t.SetSecond(parent.parent, id)
			}
		}
		return frame{parent: id}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
