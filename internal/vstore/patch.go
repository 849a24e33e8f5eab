package vstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"arb/internal/storage"
	"arb/internal/tree"
)

// Patch-operation kinds (the anchor-entry fixup rules differ per kind).
type opKind int

const (
	opReplace opKind = iota
	opDelete
	opInsert
)

// spliceSpec describes one patch as a splice of the logical record
// stream: the replaced range [start, end) (empty for inserts), the
// fragment that takes its place (nil for pure deletions), the anchor
// node the index fixup classifies ancestors against (the patched node
// for replace/delete, the parent for insert), and up to one single-
// record flag fixup outside the range (a parent learning or losing a
// child).
type spliceSpec struct {
	kind   opKind
	anchor int64
	start  int64
	end    int64
	frag   *fragment
	fixups []fixup
}

type fixup struct {
	node int64 // logical position in the old version (always < start)
	rec  storage.Record
}

// PatchInfo reports one committed operation.
type PatchInfo struct {
	Version      uint64 // the version the operation produced
	Op           string // human-readable operation summary
	Nodes        int64  // node count of the new version
	Delta        int64  // node-count change
	SegmentBytes int64  // bytes appended by the operation
}

// ReplaceSubtree replaces the XML subtree rooted at node — the node and
// everything below it in the document, not its following siblings —
// with t, returning the new version. Cost is O(|old subtree| + |t|):
// the fragment is encoded into a fresh segment, the run table is
// spliced, and the subtree index is fixed up along the ancestor path
// only. Concurrent snapshots keep reading the old version.
func (st *Store) ReplaceSubtree(ctx context.Context, node int64, t *tree.Tree) (*PatchInfo, error) {
	return st.write(func(ver *version, next *uint64) (*PatchInfo, error) {
		rec, err := ver.db.RecordAt(node)
		if err != nil {
			return nil, err
		}
		frag, err := encodeFragment(ctx, t, rec.HasSecond, ver.names)
		if err != nil {
			return nil, err
		}
		end, err := ver.xmlEnd(ctx, node, rec)
		if err != nil {
			return nil, err
		}
		spec := spliceSpec{kind: opReplace, anchor: node, start: node, end: end, frag: frag}
		op := fmt.Sprintf("replace node %d (%d -> %d nodes)", node, end-node, frag.nodes)
		return st.commit(ctx, ver, next, spec, op)
	})
}

// DeleteSubtree removes the XML subtree rooted at node. When the node
// has a following sibling, the sibling chain takes its place; otherwise
// the parent's child flag is cleared (one fixed-up record). The
// document root cannot be deleted.
func (st *Store) DeleteSubtree(ctx context.Context, node int64) (*PatchInfo, error) {
	return st.write(func(ver *version, next *uint64) (*PatchInfo, error) {
		if node == 0 {
			return nil, fmt.Errorf("vstore: cannot delete the document root")
		}
		rec, err := ver.db.RecordAt(node)
		if err != nil {
			return nil, err
		}
		end, err := ver.xmlEnd(ctx, node, rec)
		if err != nil {
			return nil, err
		}
		spec := spliceSpec{kind: opDelete, anchor: node, start: node, end: end}
		if !rec.HasSecond {
			// No sibling steps into the node's place: the parent loses this
			// child (its record is the one byte-pair rewritten outside the
			// spliced range).
			parent, k, err := ver.parentOf(ctx, node)
			if err != nil {
				return nil, err
			}
			prec, err := ver.db.RecordAt(parent)
			if err != nil {
				return nil, err
			}
			if k == 1 {
				prec.HasFirst = false
			} else {
				prec.HasSecond = false
			}
			spec.fixups = []fixup{{node: parent, rec: prec}}
		}
		op := fmt.Sprintf("delete node %d (%d nodes)", node, end-node)
		return st.commit(ctx, ver, next, spec, op)
	})
}

// InsertChild inserts t as the new first child of node (document order:
// before the node's existing children). The fragment's root takes the
// node's old first child as its next sibling, and the node's record
// gains the first-child flag. Text nodes cannot take children.
func (st *Store) InsertChild(ctx context.Context, node int64, t *tree.Tree) (*PatchInfo, error) {
	return st.write(func(ver *version, next *uint64) (*PatchInfo, error) {
		rec, err := ver.db.RecordAt(node)
		if err != nil {
			return nil, err
		}
		if tree.Label(rec.Label).IsChar() {
			return nil, fmt.Errorf("vstore: node %d is a text node; it cannot take children", node)
		}
		frag, err := encodeFragment(ctx, t, rec.HasFirst, ver.names)
		if err != nil {
			return nil, err
		}
		newRec := rec
		newRec.HasFirst = true
		spec := spliceSpec{
			kind:   opInsert,
			anchor: node,
			start:  node + 1,
			end:    node + 1,
			frag:   frag,
			fixups: []fixup{{node: node, rec: newRec}},
		}
		op := fmt.Sprintf("insert %d nodes under node %d", frag.nodes, node)
		return st.commit(ctx, ver, next, spec, op)
	})
}

// write runs one patch or compaction under the writer lock: op computes
// against the current version, pinned for the call, and takes its
// segment's id from next.
func (st *Store) write(op func(ver *version, next *uint64) (*PatchInfo, error)) (info *PatchInfo, err error) {
	if !st.Writable() {
		return nil, ErrReadOnly
	}
	st.writer.Do(func(next *uint64) {
		snap := st.Snapshot()
		defer snap.Release()
		info, err = op(snap.v, next)
	})
	return info, err
}

// commit materialises a splice as a new version and publishes it: commit
// the segment (fragment records plus fixed-up records), derive the new run
// table and index, commit a grown name table if the patch introduced tags,
// commit the manifest — the atomic commit point — then swap the current
// version. Cancelling ctx aborts a long segment write; nothing is
// published then. ver is the current version, which the caller (write)
// pinned, and next the writer's next segment id.
func (st *Store) commit(ctx context.Context, ver *version, next *uint64, spec spliceSpec, op string) (*PatchInfo, error) {
	segID := *next
	*next++

	var fragNodes int64
	var fragRoot storage.IndexEntry
	var fragEntries []storage.IndexEntry
	var segBytes []byte
	if spec.frag != nil {
		fragNodes = spec.frag.nodes
		fragRoot = spec.frag.root
		fragEntries = spec.frag.entries
		segBytes = spec.frag.recs
	}
	for _, fx := range spec.fixups {
		var buf [storage.NodeSize]byte
		binary.BigEndian.PutUint16(buf[:], fx.rec.Encode())
		segBytes = append(segBytes, buf[:]...)
	}
	delta := fragNodes - (spec.end - spec.start)
	newN := ver.n + delta
	if newN < 1 {
		return nil, fmt.Errorf("vstore: operation would empty the database")
	}

	var seg *segment
	committed := false
	if len(segBytes) > 0 {
		var err error
		if seg, err = st.newSegment(ctx, segID, bytes.NewReader(segBytes), int64(len(segBytes))); err != nil {
			return nil, err
		}
		defer func() {
			if !committed {
				seg.drop(st.dir)
			}
		}()
	}

	runs := spliceRuns(ver.runs, ver.n, spec, seg, fragNodes)
	entries := fixupEntries(ver.idx.Entries(), spec, fragNodes, fragRoot, fragEntries)
	ix, err := storage.NewIndex(newN, entries)
	if err != nil {
		// A fixup produced an invalid index — a bug, not a user error;
		// refuse the commit rather than publish a corrupt version.
		return nil, fmt.Errorf("vstore: internal: patched index invalid: %w", err)
	}

	names, nNames := ver.names, ver.nNames
	if spec.frag != nil && spec.frag.grewName {
		names = spec.frag.names
		nNames = names.Len()
		if err := writeNamesFile(st.base+".vlab", names); err != nil {
			return nil, err
		}
	}

	newVer := &version{id: ver.id + 1, n: newN, runs: runs, idx: ix, names: names, nNames: nNames}
	newVer.finish(st.base)
	if err := writeManifest(st.base+".arbm", st.manifestFor(newVer, op)); err != nil {
		return nil, err
	}
	committed = true
	st.publish(newVer, op, false)
	return &PatchInfo{
		Version:      newVer.id,
		Op:           op,
		Nodes:        newN,
		Delta:        delta,
		SegmentBytes: int64(len(segBytes)),
	}, nil
}

// compressSegmentMin is the smallest segment worth the container
// framing: below it (typical single-fixup patches) segments stay raw
// regardless of the store's codec policy. Readers never consult the
// policy — each segment file is sniffed individually at open.
const compressSegmentMin = 1 << 12

// spliceRuns derives the new run table: old runs clipped to before the
// patch, the fragment as one run, old runs after the patch shifted by
// delta, and each fixed-up record overlaid as a one-node run into the
// patch segment (fixups follow the fragment bytes physically).
func spliceRuns(old []run, oldN int64, spec spliceSpec, seg *segment, fragNodes int64) []run {
	delta := fragNodes - (spec.end - spec.start)
	out := clipRuns(old, 0, spec.start, 0)
	if fragNodes > 0 {
		out = append(out, run{seg: seg, logical: spec.start, phys: 0, count: fragNodes})
	}
	out = append(out, clipRuns(old, spec.end, oldN, delta)...)
	for i, fx := range spec.fixups {
		out = overlayRun(out, fx.node, run{seg: seg, logical: fx.node, phys: fragNodes + int64(i), count: 1})
	}
	return out
}

// clipRuns returns the portions of runs inside the logical range
// [lo, hi), with logical positions shifted by delta.
func clipRuns(runs []run, lo, hi, delta int64) []run {
	var out []run
	for _, r := range runs {
		s, e := r.logical, r.logical+r.count
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if s >= e {
			continue
		}
		out = append(out, run{seg: r.seg, logical: s + delta, phys: r.phys + (s - r.logical), count: e - s})
	}
	return out
}

// overlayRun replaces the single logical node at pos with nr, splitting
// the run containing it.
func overlayRun(runs []run, pos int64, nr run) []run {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].logical > pos }) - 1
	r := runs[i]
	out := make([]run, 0, len(runs)+2)
	out = append(out, runs[:i]...)
	if pos > r.logical {
		out = append(out, run{seg: r.seg, logical: r.logical, phys: r.phys, count: pos - r.logical})
	}
	out = append(out, nr)
	if rem := r.logical + r.count - (pos + 1); rem > 0 {
		out = append(out, run{seg: r.seg, logical: pos + 1, phys: r.phys + (pos - r.logical) + 1, count: rem})
	}
	out = append(out, runs[i+1:]...)
	return out
}

// fixupEntries derives the new version's index entries from the old
// ones; fragRoot is the fragment root's entry (its label and the
// fragment's signature). The laminar-family invariant makes the
// classification complete: an extent containing the anchor either is
// rooted at it (per-kind rules) or is a proper ancestor containing the
// whole patched range (sizes adjust exactly; signatures grow
// conservatively). Extents before the patch keep; extents after shift;
// extents inside are superseded by the fragment's own entries. Every
// entry's root record stays exact — sizes set the child flags, and a
// replaced anchor takes the fragment root's label — because the window
// passes serve records from the entries. Everything stays laminar by
// construction, and the result is trimmed to the store's index budget.
func fixupEntries(old []storage.IndexEntry, spec spliceSpec, fragNodes int64, fragRoot storage.IndexEntry, fragEntries []storage.IndexEntry) []storage.IndexEntry {
	fragSig := fragRoot.Labels
	delta := fragNodes - (spec.end - spec.start)
	out := make([]storage.IndexEntry, 0, len(old)+len(fragEntries))
	for _, e := range old {
		switch {
		case e.V <= spec.anchor && spec.anchor < e.V+e.Size:
			if e.V == spec.anchor {
				switch spec.kind {
				case opReplace:
					// New subtree at the anchor: fragment plus the old
					// second subtree. The fragment is the node and its
					// first subtree, so FirstSize and the label are
					// exact; old labels over-approximate the kept second
					// subtree.
					e.Size += delta
					e.FirstSize = fragNodes - 1
					e.Label = fragRoot.Label
					e.Labels.Or(fragSig)
					out = append(out, e)
				case opInsert:
					// The fragment joins the anchor's first subtree.
					e.Size += delta
					e.FirstSize += delta
					e.Labels.Or(fragSig)
					out = append(out, e)
				case opDelete:
					// The anchor node is gone; whatever moved into its
					// position is covered by the shifted entries below.
				}
				continue
			}
			// Proper ancestor: its extent contains the whole patched
			// range, so the size delta is exact; the patch lands in its
			// first subtree iff the anchor does.
			e.Size += delta
			if spec.anchor < e.V+1+e.FirstSize {
				e.FirstSize += delta
			}
			e.Labels.Or(fragSig)
			out = append(out, e)
		case e.V+e.Size <= spec.start:
			out = append(out, e)
		case e.V >= spec.end:
			e.V += delta
			out = append(out, e)
		default:
			// Inside the replaced range: superseded.
		}
	}
	for _, fe := range fragEntries {
		fe.V += spec.start
		out = append(out, fe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return trimEntries(out, storeIndexBudget)
}

// trimEntries drops the smallest entries until the budget holds,
// preserving preorder ordering (any subset of a laminar family is
// laminar).
func trimEntries(entries []storage.IndexEntry, budget int) []storage.IndexEntry {
	if len(entries) <= budget {
		return entries
	}
	sizes := make([]int64, len(entries))
	for i, e := range entries {
		sizes[i] = e.Size
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	threshold := sizes[budget-1]
	over := 0 // entries of exactly threshold size we may still keep
	for _, s := range sizes[:budget] {
		if s == threshold {
			over++
		}
	}
	out := entries[:0]
	for _, e := range entries {
		if e.Size > threshold {
			out = append(out, e)
		} else if e.Size == threshold && over > 0 {
			over--
			out = append(out, e)
		}
	}
	return out
}

// writeNamesFile commits a grown label-name table through
// storage.WriteFile (the .vlab is committed before the manifest that
// relies on it; ids are append-only, so a stale-but-longer .vlab is
// harmless).
func writeNamesFile(path string, names *tree.Names) error {
	return storage.WriteFile(path, func(f *os.File) error {
		_, err := names.WriteTo(f)
		return err
	})
}

// errWalked ends a record walk of the version early, once it has found
// what it walks for.
var errWalked = errors.New("vstore: walk done")

// holes returns the maximal index extents inside the node range [lo, hi):
// the subtrees a walk of that range counts as one each without reading
// them.
func (ver *version) holes(lo, hi int64) []storage.Extent {
	var skip []storage.Extent
	end := lo
	for _, e := range ver.idx.Entries() {
		if e.V >= hi {
			break
		}
		if e.V >= end && e.V+e.Size <= hi {
			skip = append(skip, storage.Extent{Root: e.V, Size: e.Size})
			end = e.V + e.Size
		}
	}
	return skip
}

// xmlEnd returns the exclusive end of the XML subtree of v — the node
// plus its first (descendant) subtree, not the sibling chain: the range
// every patch operation splices. One forward walk from v+1 counts the
// subtrees still owed, reading O(subtree) records at worst; indexed
// subtrees inside it are holes, each one owed subtree, never read.
func (ver *version) xmlEnd(ctx context.Context, v int64, rec storage.Record) (int64, error) {
	if !rec.HasFirst {
		return v + 1, nil
	}
	owed, end := 1, int64(0)
	var st storage.ScanStats
	err := ver.db.ForwardWindows(ctx, v+1, ver.n, ver.holes(v+1, ver.n), ver.idx, &st,
		func(x storage.Extent) error {
			if owed--; owed == 0 {
				end = x.End()
				return errWalked
			}
			return nil
		},
		func(first int64, recs []byte) error {
			for i := 0; i < len(recs); i += storage.NodeSize {
				r := binary.BigEndian.Uint16(recs[i:])
				owed--
				if r&storage.FlagFirst != 0 {
					owed++
				}
				if r&storage.FlagSecond != 0 {
					owed++
				}
				if owed == 0 {
					end = first + int64(i/storage.NodeSize) + 1
					return errWalked
				}
			}
			return nil
		})
	if errors.Is(err, errWalked) {
		return end, nil
	}
	if err == nil {
		err = fmt.Errorf("vstore: malformed database: subtree at %d runs past the end", v+1)
	}
	return 0, err
}

// parentOf locates the binary-tree parent of v and whether v is its
// first or second child, with one backward walk from v: a first child's
// parent is the node before it, and a second child's is its XML left
// sibling, whose descendants the walk crosses. Folding reverse preorder,
// each of those descendants finds its children among the complete
// subtrees behind it; the first node that announces more children than
// there are is the parent, which misses v's subtree itself. Indexed
// subtrees that end by v are holes, each one complete subtree, never
// read.
func (ver *version) parentOf(ctx context.Context, v int64) (int64, int, error) {
	parent, k := int64(-1), 0
	done := 0 // complete subtrees between the walk's position and v
	var st storage.ScanStats
	err := ver.db.BackwardWindows(ctx, 0, v, ver.holes(0, v), ver.idx, &st,
		func(storage.Extent) error {
			done++
			return nil
		},
		func(first int64, recs []byte) error {
			u := first + int64(len(recs)/storage.NodeSize) - 1
			for i := len(recs) - storage.NodeSize; i >= 0; i, u = i-storage.NodeSize, u-1 {
				r := binary.BigEndian.Uint16(recs[i:])
				kids := 0
				if r&storage.FlagFirst != 0 {
					kids++
				}
				if r&storage.FlagSecond != 0 {
					kids++
				}
				if kids > done {
					parent, k = u, 2
					if r&storage.FlagFirst != 0 && done == 0 {
						k = 1
					}
					return errWalked
				}
				done -= kids - 1
			}
			return nil
		})
	if errors.Is(err, errWalked) {
		return parent, k, nil
	}
	if err == nil {
		err = fmt.Errorf("vstore: node %d has no parent", v)
	}
	return 0, 0, err
}
