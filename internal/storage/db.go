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
// (say, a .arb file swapped underneath its .idx sidecar whose entries'
// roots still match the records, which DB.Index checks). Only a run that
// cuts a chunk frontier sees it, and that run rebuilds the index and
// retries.
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

// Open opens base.arb and base.lab; a missing base.lab is an error naming
// it, not a database of unnamed labels. A block-compressed container
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
	// A database without its name table would read every tag as an
	// unnamed label: no Label[..] test would match, and nothing would
	// tell.
	labF, err := os.Open(base + ".lab")
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	names, err := tree.ReadNames(labF)
	labF.Close()
	if err != nil {
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
	// Bytes counts the .arb record bytes this scan handed its consumer,
	// whether read or served from the subtree index (IndexBytes). Skipped
	// extents (the leader's view of chunks scanned by workers) contribute
	// to Nodes but not Bytes, so merging a parallel run's scanners yields
	// exactly the database size per aggregate linear scan — the counter
	// behind the "two linear scans, even batched and parallel" claim.
	Bytes int64
	// IndexBytes counts the part of Bytes served from the subtree index
	// instead of read: the records of gaps between skipped extents whose
	// every node roots an index entry (see ForwardWindows) — typically the
	// one glue record between two pruned extents.
	IndexBytes int64
	// SkippedBytes counts the .arb record bytes the scan seeked past
	// because selectivity-aware pruning proved the extents irrelevant to
	// the query. Pruning turns the fixed two-full-scan cost into one
	// proportional to query selectivity; the invariant becomes
	// Bytes + SkippedBytes == database size per aggregate linear scan.
	SkippedBytes int64
	// PhysicalBytes counts the bytes actually read from the physical
	// medium for the regions this scan read. On a raw database it equals
	// Bytes − IndexBytes; on a block-compressed one it is the stored size
	// of every block the read regions touched — the number that makes
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
	s.IndexBytes += o.IndexBytes
	s.SkippedBytes += o.SkippedBytes
	s.PhysicalBytes += o.PhysicalBytes
	if o.MaxStack > s.MaxStack {
		s.MaxStack = o.MaxStack
	}
}

// FoldBottomUp traverses the database bottom-up in one backward linear
// scan of the .arb file (Proposition 5.1), combining child results into
// parent results. combine is called exactly once per node, in reverse
// preorder, with the results of the node's first and second child (nil
// for absent children) and the node's record and preorder index. It
// returns the root's result. Cancelling ctx makes the scan return
// ctx.Err() promptly (checked every few thousand nodes).
func FoldBottomUp[S any](ctx context.Context, db *DB, combine func(first, second *S, rec Record, v int64) S) (S, ScanStats, error) {
	return foldRange(ctx, db, 0, db.N, combine)
}

// foldRange is FoldBottomUp over the node range [lo, hi), which must hold
// exactly one subtree.
func foldRange[S any](ctx context.Context, db *DB, lo, hi int64, combine func(first, second *S, rec Record, v int64) S) (S, ScanStats, error) {
	var st ScanStats
	var stack []S // the results of the subtrees after the current node
	err := db.BackwardWindows(ctx, lo, hi, nil, nil, &st, nil, func(v0 int64, recs []byte) error {
		v := v0 + int64(len(recs)/NodeSize) - 1
		for i := len(recs) - NodeSize; i >= 0; i, v = i-NodeSize, v-1 {
			rec := DecodeRecord(binary.BigEndian.Uint16(recs[i:]))
			var first, second *S
			if rec.HasFirst {
				if len(stack) == 0 {
					return fmt.Errorf("%w: missing first subtree at node %d", ErrMalformed, v)
				}
				first, stack = &stack[len(stack)-1], stack[:len(stack)-1]
			}
			if rec.HasSecond {
				if len(stack) == 0 {
					return fmt.Errorf("%w: missing second subtree at node %d", ErrMalformed, v)
				}
				second, stack = &stack[len(stack)-1], stack[:len(stack)-1]
			}
			stack = append(stack, combine(first, second, rec, v))
			st.MaxStack = max(st.MaxStack, len(stack))
			st.Nodes++
		}
		return nil
	})
	if err == nil && len(stack) != 1 {
		err = fmt.Errorf("%w: %d roots", ErrMalformed, len(stack))
	}
	if err != nil {
		var zero S
		return zero, st, err
	}
	return stack[0], st, nil
}

// ScanTopDown traverses the database top-down in one forward linear scan
// of the .arb file (Proposition 5.1). visit is called exactly once per
// node in preorder; for the root, parent is nil and k is 0; otherwise
// parent is the value visit returned for the node's parent and k tells
// whether the node is the first (1) or second (2) child. The stack holds
// one entry per ancestor whose second subtree is still pending.
// Cancelling ctx makes the scan return ctx.Err() promptly.
func ScanTopDown[S any](ctx context.Context, db *DB, visit func(v int64, rec Record, parent *S, k int) (S, error)) (ScanStats, error) {
	return scanRange(ctx, db, 0, db.N, visit)
}

// scanRange is ScanTopDown over the node range [lo, hi), which must hold
// exactly one subtree.
func scanRange[S any](ctx context.Context, db *DB, lo, hi int64, visit func(v int64, rec Record, parent *S, k int) (S, error)) (ScanStats, error) {
	var st ScanStats
	var pending []S // the values of the nodes awaiting their second subtree
	var parent *S
	var parentVal S
	k, done := 0, false
	err := db.ForwardWindows(ctx, lo, hi, nil, nil, &st, nil, func(first int64, recs []byte) error {
		for i := 0; i < len(recs); i += NodeSize {
			v := first + int64(i/NodeSize)
			if done {
				return fmt.Errorf("%w: scan ended at node %d of %d", ErrMalformed, v-1, hi)
			}
			rec := DecodeRecord(binary.BigEndian.Uint16(recs[i:]))
			s, err := visit(v, rec, parent, k)
			if err != nil {
				return err
			}
			st.Nodes++
			if rec.HasSecond {
				pending = append(pending, s)
				st.MaxStack = max(st.MaxStack, len(pending))
			}
			switch {
			case rec.HasFirst:
				parentVal, parent, k = s, &parentVal, 1
			case len(pending) > 0:
				parentVal, parent, k = pending[len(pending)-1], &parentVal, 2
				pending = pending[:len(pending)-1]
			default:
				parent, k, done = nil, 0, true
			}
		}
		return nil
	})
	if err == nil && (parent != nil || len(pending) > 0) {
		err = fmt.Errorf("%w: %d announced subtrees missing at end of file", ErrMalformed, len(pending)+1)
	}
	return st, err
}

// ReadTree materialises the whole database as an in-memory tree, in one
// forward pass: node v of the database is node v of the tree. Intended
// for tests and small databases.
func (db *DB) ReadTree(ctx context.Context) (*tree.Tree, error) {
	t := tree.New(db.Names)
	// The next record is the first child of first, when the last record
	// announced one, and otherwise the second child of the innermost node
	// awaiting its second subtree.
	first := tree.None
	var pending []tree.NodeID
	done := false // the root's subtree is complete
	var st ScanStats
	err := db.ForwardWindows(ctx, 0, db.N, nil, nil, &st, nil, func(v0 int64, recs []byte) error {
		for i := 0; i < len(recs); i += NodeSize {
			if done {
				return fmt.Errorf("%w: record %d follows the root's subtree", ErrMalformed, v0+int64(i/NodeSize))
			}
			rec := DecodeRecord(binary.BigEndian.Uint16(recs[i:]))
			id := t.AddNode(tree.Label(rec.Label))
			if first != tree.None {
				t.SetFirst(first, id)
			} else if len(pending) > 0 {
				t.SetSecond(pending[len(pending)-1], id)
				pending = pending[:len(pending)-1]
			}
			first = tree.None
			if rec.HasSecond {
				pending = append(pending, id)
			}
			if rec.HasFirst {
				first = id
			} else {
				done = len(pending) == 0
			}
		}
		return nil
	})
	if err == nil && !done {
		err = fmt.Errorf("%w: announced subtrees missing at end of file", ErrMalformed)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}
