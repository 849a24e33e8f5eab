package vstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	st.wmu.Lock()
	defer st.wmu.Unlock()
	snap := st.Snapshot()
	defer snap.Release()
	ver := snap.v
	rec, err := ver.checkedRec(node)
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
	return st.commit(spec, op)
}

// DeleteSubtree removes the XML subtree rooted at node. When the node
// has a following sibling, the sibling chain takes its place; otherwise
// the parent's child flag is cleared (one fixed-up record). The
// document root cannot be deleted.
func (st *Store) DeleteSubtree(ctx context.Context, node int64) (*PatchInfo, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	snap := st.Snapshot()
	defer snap.Release()
	ver := snap.v
	if node == 0 {
		return nil, fmt.Errorf("vstore: cannot delete the document root")
	}
	rec, err := ver.checkedRec(node)
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
		prec, err := ver.readRec(parent)
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
	return st.commit(spec, op)
}

// InsertChild inserts t as the new first child of node (document order:
// before the node's existing children). The fragment's root takes the
// node's old first child as its next sibling, and the node's record
// gains the first-child flag. Text nodes cannot take children.
func (st *Store) InsertChild(ctx context.Context, node int64, t *tree.Tree) (*PatchInfo, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	snap := st.Snapshot()
	defer snap.Release()
	ver := snap.v
	rec, err := ver.checkedRec(node)
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
	return st.commit(spec, op)
}

// commit materialises a splice as a new version and publishes it: write
// the segment (fragment records plus fixed-up records, synced), derive
// the new run table and index, persist a grown name table if the patch
// introduced tags, write the manifest to a temp file and rename it into
// place — the atomic commit point — then swap the current version.
func (st *Store) commit(spec spliceSpec, op string) (*PatchInfo, error) {
	// The caller (holding wmu) pinned the version we compute against.
	st.mu.Lock()
	ver := st.cur
	segID := st.nextSeg
	st.nextSeg++
	st.mu.Unlock()

	var fragNodes int64
	var fragSig storage.LabelSig
	var fragEntries []storage.IndexEntry
	var segBytes []byte
	if spec.frag != nil {
		fragNodes = spec.frag.nodes
		fragSig = spec.frag.sig
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
		name := fmt.Sprintf("%s-%06d.seg", filepath.Base(st.base), segID)
		path := filepath.Join(st.dir, name)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		defer func() {
			if !committed {
				f.Close()
				os.Remove(path)
			}
		}()
		src, err := st.writeSegment(f, segBytes)
		if err != nil {
			return nil, err
		}
		seg = &segment{id: segID, kind: segPatch, nodes: int64(len(segBytes)) / storage.NodeSize, name: name, f: f, src: src}
	}

	runs := spliceRuns(ver.runs, ver.n, spec, seg, fragNodes)
	entries := fixupEntries(ver.idx.Entries(), spec, fragNodes, fragSig, fragEntries)
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

// writeSegment persists one new segment's record bytes to f — block-
// compressed when the store's write policy applies and the segment is
// big enough to benefit — syncs the file and its directory entry (the
// segment must be durable before the manifest rename that references
// it), and returns the reader serving the segment's logical space.
func (st *Store) writeSegment(f *os.File, segBytes []byte) (io.ReaderAt, error) {
	if st.codec != storage.CodecRaw && len(segBytes) >= compressSegmentMin {
		bw, err := storage.NewBlockWriter(f, st.blockSize)
		if err != nil {
			return nil, err
		}
		if _, err := bw.Write(segBytes); err != nil {
			return nil, err
		}
		if err := bw.Close(); err != nil {
			return nil, err
		}
	} else if _, err := f.Write(segBytes); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := storage.SyncDir(st.dir); err != nil {
		return nil, err
	}
	src, logical, err := openSegmentSource(f)
	if err != nil {
		return nil, err
	}
	if logical != int64(len(segBytes)) {
		return nil, fmt.Errorf("vstore: internal: segment holds %d logical bytes, wrote %d", logical, len(segBytes))
	}
	return src, nil
}

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
// ones. The laminar-family invariant makes the classification complete:
// an extent containing the anchor either is rooted at it (per-kind
// rules) or is a proper ancestor containing the whole patched range
// (sizes adjust exactly; signatures grow conservatively). Extents
// before the patch keep; extents after shift; extents inside are
// superseded by the fragment's own entries. Everything stays laminar by
// construction, and the result is trimmed to the store's index budget.
func fixupEntries(old []storage.IndexEntry, spec spliceSpec, fragNodes int64, fragSig storage.LabelSig, fragEntries []storage.IndexEntry) []storage.IndexEntry {
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
					// first subtree, so FirstSize is exact; old labels
					// over-approximate the kept second subtree.
					e.Size += delta
					e.FirstSize = fragNodes - 1
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

// writeNamesFile persists a grown label-name table via temp file and
// rename (the .vlab is committed before the manifest that relies on
// it; ids are append-only, so a stale-but-longer .vlab is harmless).
func writeNamesFile(path string, names *tree.Names) error {
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
	_, werr := names.WriteTo(f)
	if err := f.Sync(); werr == nil {
		werr = err
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
		renamed = werr == nil
	}
	if werr == nil {
		werr = storage.SyncDir(filepath.Dir(path))
	}
	return werr
}

// checkedRec reads the record at node, validating the position.
func (ver *version) checkedRec(node int64) (storage.Record, error) {
	if node < 0 || node >= ver.n {
		return storage.Record{}, fmt.Errorf("vstore: node %d out of range [0,%d)", node, ver.n)
	}
	return ver.readRec(node)
}

// readRec reads the single record at logical position v.
func (ver *version) readRec(v int64) (storage.Record, error) {
	var b [storage.NodeSize]byte
	if _, err := ver.src.ReadAt(b[:], v*storage.NodeSize); err != nil {
		return storage.Record{}, err
	}
	return storage.DecodeRecord(binary.BigEndian.Uint16(b[:])), nil
}

// xmlEnd returns the exclusive end of the XML subtree of v — the node
// plus its first (descendant) subtree, not the sibling chain: the range
// every patch operation splices. Cost is O(subtree) at worst; indexed
// subtrees inside it are jumped over without reading.
func (ver *version) xmlEnd(ctx context.Context, v int64, rec storage.Record) (int64, error) {
	if !rec.HasFirst {
		return v + 1, nil
	}
	return ver.skipSubtrees(ctx, v+1, 1)
}

// skipSubtrees returns the position after `pending` complete binary
// subtrees starting at start, reading records in chunks and jumping
// over indexed extents.
func (ver *version) skipSubtrees(ctx context.Context, start, pending int64) (int64, error) {
	cancel := storage.NewCanceller(ctx)
	const chunkNodes = 16384
	var buf []byte
	bufStart, bufEnd := int64(0), int64(0)
	pos := start
	for pending > 0 {
		if err := cancel.Step(); err != nil {
			return 0, err
		}
		if pos >= ver.n {
			return 0, fmt.Errorf("vstore: malformed database: subtree at %d runs past the end", start)
		}
		if e, ok := ver.idx.Lookup(pos); ok && pos+e.Size <= ver.n {
			pos += e.Size
			pending--
			continue
		}
		if pos < bufStart || pos >= bufEnd {
			end := pos + chunkNodes
			if end > ver.n {
				end = ver.n
			}
			need := int((end - pos) * storage.NodeSize)
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			buf = buf[:need]
			if _, err := ver.src.ReadAt(buf, pos*storage.NodeSize); err != nil {
				return 0, err
			}
			bufStart, bufEnd = pos, end
		}
		rec := storage.DecodeRecord(binary.BigEndian.Uint16(buf[(pos-bufStart)*storage.NodeSize:]))
		pending--
		if rec.HasFirst {
			pending++
		}
		if rec.HasSecond {
			pending++
		}
		pos++
	}
	return pos, nil
}

// errFoundParent aborts the parent-locating scan once the target node
// has been visited.
var errFoundParent = errors.New("vstore: parent located")

// parentOf locates the binary-tree parent of v and whether v is its
// first or second child, with one forward scan that seeks past every
// maximal indexed extent not containing v (an extent containing the
// parent necessarily contains v too, so skipping the rest is safe).
// The root has no parent: (-1, 0).
func (ver *version) parentOf(ctx context.Context, v int64) (int64, int, error) {
	if v == 0 {
		return -1, 0, nil
	}
	var skip []storage.Extent
	var end int64
	for _, e := range ver.idx.Entries() {
		if e.V > v {
			break // the scan aborts at v; later extents are never reached
		}
		if e.V < end {
			continue // nested inside an extent already skipped
		}
		if e.V <= v && v < e.V+e.Size {
			continue // contains v: the scan must descend into it
		}
		skip = append(skip, storage.Extent{Root: e.V, Size: e.Size})
		end = e.V + e.Size
	}
	type pframe struct{ id int64 }
	parent, k := int64(-1), 0
	_, err := storage.ScanTopDownSkipping(ctx, ver.db, skip,
		func(x storage.Extent, p *pframe, kk int) error { return nil },
		func(u int64, rec storage.Record, p *pframe, kk int) (pframe, error) {
			if u == v {
				if p != nil {
					parent, k = p.id, kk
				}
				return pframe{id: u}, errFoundParent
			}
			return pframe{id: u}, nil
		})
	if err == nil {
		return 0, 0, fmt.Errorf("vstore: node %d not reached by the parent scan", v)
	}
	if !errors.Is(err, errFoundParent) {
		return 0, 0, err
	}
	if parent < 0 {
		return 0, 0, fmt.Errorf("vstore: node %d has no parent", v)
	}
	return parent, k, nil
}
