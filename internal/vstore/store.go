package vstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"arb/internal/guard"
	"arb/internal/storage"
	"arb/internal/tree"
)

// storeIndexBudget bounds the per-version subtree index: patches splice
// fragment entries in and drop covered ones, and the smallest entries
// are evicted past this budget — the same footnote-sized index contract
// as storage.DefaultIndexBudget.
const storeIndexBudget = storage.DefaultIndexBudget

// segment is one open physical file serving record runs: the immutable
// original base.arb (kind segBase, never deleted) or an appended patch
// segment (kind segPatch, deleted once no live version references it).
type segment struct {
	id    uint64
	kind  uint8
	nodes int64
	name  string // file name relative to the store directory
	f     *os.File
	src   io.ReaderAt // logical record space: f itself, or a decompressing view over it
}

// openSegmentSource sniffs an open segment file and returns the reader
// serving its logical record space — the file itself for a plain record
// stream, a decompressing block-container view otherwise — plus the
// logical byte count either way. Compression is a per-file property
// discovered here, never declared by the manifest: old raw segments and
// new compressed ones mix freely in one store.
func openSegmentSource(f *os.File) (io.ReaderAt, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	src, info, ok, err := storage.OpenContainer(f, fi.Size())
	if err != nil {
		return nil, 0, err
	}
	if ok {
		return src, info.LogicalBytes, nil
	}
	return f, fi.Size(), nil
}

// openSegment opens the segment file name in the store's directory and
// checks that it serves at least want logical bytes: the records a
// manifest promises, or those a commit just wrote. The caller sets the
// segment's id and kind.
func (st *Store) openSegment(name string, want int64) (*segment, error) {
	f, err := os.Open(filepath.Join(st.dir, name))
	if err != nil {
		return nil, fmt.Errorf("vstore: missing segment %s: %w", name, err)
	}
	src, logical, err := openSegmentSource(f)
	if err == nil && logical < want {
		err = fmt.Errorf("holds %d bytes, want %d", logical, want)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("vstore: segment %s: %w", name, err)
	}
	return &segment{nodes: want / storage.NodeSize, name: name, f: f, src: src}, nil
}

// newSegment commits patch segment id through storage.WriteFile, holding
// the size logical bytes src serves, and opens it. The bytes are copied in
// bounded chunks, so cancelling ctx aborts a long copy, and block-compressed
// when the store's write policy applies and the segment is big enough to
// benefit. Until a manifest references the segment, the caller drops it on
// failure.
func (st *Store) newSegment(ctx context.Context, id uint64, src io.ReaderAt, size int64) (*segment, error) {
	name := fmt.Sprintf("%s-%06d.seg", filepath.Base(st.base), id)
	path := filepath.Join(st.dir, name)
	err := storage.WriteFile(path, func(f *os.File) error {
		var w io.Writer = f
		var bw *storage.BlockWriter
		if st.codec != storage.CodecRaw && size >= compressSegmentMin {
			var err error
			if bw, err = storage.NewBlockWriter(f, st.blockSize); err != nil {
				return err
			}
			w = bw
		}
		const chunk = int64(1 << 20)
		for off := int64(0); off < size; off += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := min(off+chunk, size)
			if _, err := io.Copy(w, io.NewSectionReader(src, off, end-off)); err != nil {
				return err
			}
		}
		if bw != nil {
			return bw.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seg, err := st.openSegment(name, size)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	seg.id, seg.kind = id, segPatch
	return seg, nil
}

// drop closes the segment's file and removes it.
func (sg *segment) drop(dir string) {
	sg.f.Close()
	os.Remove(filepath.Join(dir, sg.name))
}

// version is one immutable database version: a run table stitching
// segments into the logical record space, the version's subtree index
// and label-name table, and the virtual storage.DB every reader scans.
type version struct {
	id     uint64
	n      int64
	runs   []run
	src    *stitchedReader
	idx    *storage.SubtreeIndex
	names  *tree.Names
	nNames int
	db     *storage.DB
	segs   []*segment // unique segments referenced by runs
}

// Store is a versioned .arb database: one writer at a time (patches and
// compactions serialise on writer), any number of lock-free readers, each
// pinning a version via Snapshot. The current version is published by
// atomic manifest rename; superseded versions survive until their last
// snapshot is released, which drives patch-segment garbage collection.
type Store struct {
	base string // database path prefix (like storage.DB.Base)
	dir  string

	// Segment write policy, fixed at Open: new patch and compaction
	// segments are block-compressed with this codec (storage.CodecRaw
	// writes plain segments). Inherited from a compressed base.arb at
	// bootstrap, persisted and reloaded through the manifest.
	codec     uint8
	blockSize int

	// writer serialises writers: at most one patch/compact computes and
	// commits at a time, holding the id the next segment takes. Readers
	// never take it.
	writer *guard.Mutex[uint64]

	// ro is the database of a read-only store (ReadOnly), whose one
	// version reads it directly; nil for a store opened with Open. Close
	// closes it when closeRO is set.
	ro      *storage.DB
	closeRO bool

	// state is the version and segment bookkeeping; its lock is held for
	// pointer swaps and refcounts, and to close and remove the segments a
	// dying version frees, never during scans or segment writes.
	state *guard.Mutex[storeState]
}

// storeState is a store's bookkeeping: the current version, the live
// versions with their pins, the open segments with the live versions
// referencing each, and the counters Stats reports.
type storeState struct {
	cur *version
	// vers holds each version not yet collected and its pins: the store's
	// own (while current) plus one per snapshot.
	vers map[*version]int
	// segs holds each open segment and the live versions referencing it.
	segs        map[*segment]int
	history     []HistoryEntry
	snapRefs    int   // outstanding snapshots
	patches     int64 // committed patches
	compactions int64 // committed compactions
	closed      bool
}

// Open opens base as a versioned database. With a base.arbm manifest
// present, the manifested version is loaded (rejecting manifests that
// reference missing or undersized segments) and orphaned patch segments
// or temp files from an interrupted commit are swept. Without one, the
// plain base.arb/.lab database bootstraps read-only as version 1 — no
// files are created or modified until the first patch commits.
// Cancelling ctx aborts a bootstrap index build.
func Open(ctx context.Context, base string) (*Store, error) {
	st := &Store{base: base, dir: filepath.Dir(base)}
	versioned, err := Versioned(base)
	if err != nil {
		return nil, err
	}
	s := storeState{vers: make(map[*version]int), segs: make(map[*segment]int)}
	var next uint64
	if versioned {
		next, err = st.openManifest(ctx, &s, base+".arbm")
	} else {
		next, err = st.bootstrap(ctx, &s)
	}
	if err != nil {
		return nil, err
	}
	st.sweepOrphans(s.segs)
	st.writer, st.state = guard.New(next), guard.New(s)
	return st, nil
}

// ReadOnly returns a read-only store over an open database: its one
// version, 1, reads db itself — no stitched view, and db's subtree index
// stays lazy inside it — and every patch and compaction fails with
// ErrReadOnly. Close closes db when own is set; otherwise the caller keeps
// it.
func ReadOnly(db *storage.DB, own bool) *Store {
	v := &version{id: 1, n: db.N, names: db.Names, nNames: db.Names.Len(), db: db}
	return &Store{
		base:    db.Base,
		ro:      db,
		closeRO: own,
		writer:  guard.New(uint64(0)),
		state: guard.New(storeState{
			cur:     v,
			vers:    map[*version]int{v: 1},
			history: []HistoryEntry{{Version: 1, Op: "open"}},
		}),
	}
}

// ErrReadOnly is the error of a patch or compaction of a read-only store.
var ErrReadOnly = errors.New("vstore: the store is read-only")

// Writable reports whether the store accepts patches and compactions:
// false for a read-only store (ReadOnly).
func (st *Store) Writable() bool { return st.ro == nil }

// Versioned reports whether base is a versioned database: whether its
// base.arbm manifest exists. An error other than the manifest's absence is
// returned, not read as "plain".
func Versioned(base string) (bool, error) {
	_, err := os.Stat(base + ".arbm")
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// bootstrap builds version 1 directly over the plain base.arb database
// into s — one base segment, one run, the database's own (possibly
// freshly built) subtree index — and returns the id the next segment
// takes.
func (st *Store) bootstrap(ctx context.Context, s *storeState) (uint64, error) {
	db, err := storage.Open(st.base)
	if err != nil {
		return 0, err
	}
	ix, err := db.Index(ctx, 0)
	if err != nil {
		db.Close()
		return 0, err
	}
	n, names := db.N, db.Names
	if ci, ok := db.Compression(); ok {
		// A compressed base keeps its patch chain compressed too.
		st.codec, st.blockSize = ci.Codec, ci.BlockSize
	}
	if err := db.Close(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("vstore: %s.arb is empty", st.base)
	}
	seg, err := st.openSegment(filepath.Base(st.base)+".arb", n*storage.NodeSize)
	if err != nil {
		return 0, err
	}
	seg.kind = segBase
	runs := []run{{seg: seg, logical: 0, phys: 0, count: n}}
	s.install(st.base, &version{id: 1, n: n, runs: runs, idx: ix, names: names, nNames: names.Len()})
	s.history = []HistoryEntry{{Version: 1, Op: "open"}}
	return 1, nil
}

// openManifest loads the current version from a validated manifest into
// s, opening every referenced segment and verifying it holds the promised
// bytes — a manifest referencing a missing or truncated segment is
// rejected whole — and returns the id the next segment takes. The index
// of a manifest older than v3 takes its roots' labels from the version's
// records (DB.LabelIndex); the next commit writes them. Cancelling ctx
// aborts that walk.
func (st *Store) openManifest(ctx context.Context, s *storeState, path string) (uint64, error) {
	m, ix, err := readManifest(path)
	if err != nil {
		return 0, err
	}
	names, err := st.loadNames(m.names)
	if err != nil {
		return 0, err
	}
	segs := make(map[uint64]*segment, len(m.segs))
	ok := false
	defer func() {
		if !ok {
			for _, sg := range segs {
				sg.f.Close()
			}
		}
	}()
	var maxID uint64
	for _, ms := range m.segs {
		// The promised byte count is logical: a compressed segment is
		// validated against the record space its container declares, not
		// its (smaller) physical size.
		seg, err := st.openSegment(ms.name, ms.nodes*storage.NodeSize)
		if err != nil {
			return 0, err
		}
		seg.id, seg.kind = ms.id, ms.kind
		segs[ms.id] = seg
		if ms.id >= maxID {
			maxID = ms.id + 1
		}
	}
	runs := make([]run, len(m.runs))
	for i, mr := range m.runs {
		runs[i] = run{seg: segs[mr.seg], logical: mr.logical, phys: mr.phys, count: mr.count}
	}
	for _, sg := range segs {
		s.segs[sg] = 0 // a segment no run references stays open until Close
	}
	st.codec, st.blockSize = m.codec, m.blockSize
	s.install(st.base, &version{id: m.version, n: m.n, runs: runs, idx: ix, names: names, nNames: m.names})
	if !m.labeled {
		if err := s.cur.db.LabelIndex(ctx, ix); err != nil {
			return 0, fmt.Errorf("vstore: manifest %s: %w", path, err)
		}
	}
	s.history = m.history
	ok = true
	return maxID, nil
}

// loadNames reads the store's label-name table — base.vlab when the
// store has committed new tags, base.lab otherwise — and truncates it
// to the count the manifest declares (a crash between the .vlab rename
// and the manifest rename leaves extra names; append-only ids make the
// declared prefix exactly the committed table).
func (st *Store) loadNames(count int) (*tree.Names, error) {
	names := tree.NewNames()
	for _, path := range []string{st.base + ".vlab", st.base + ".lab"} {
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		names, err = tree.ReadNames(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		break
	}
	all := names.All()
	if len(all) < count {
		return nil, fmt.Errorf("vstore: name table holds %d names, manifest declares %d", len(all), count)
	}
	if len(all) == count {
		return names, nil
	}
	trimmed := tree.NewNames()
	for _, name := range all[:count] {
		trimmed.MustIntern(name)
	}
	return trimmed, nil
}

// install makes ver the current version (store construction only; the
// commit path uses publish).
func (s *storeState) install(base string, ver *version) {
	ver.finish(base)
	s.vers[ver] = 1
	for _, sg := range ver.segs {
		s.segs[sg]++
	}
	s.cur = ver
}

// finish derives a version's stitched reader, unique segment list and
// virtual database from its run table.
func (ver *version) finish(base string) {
	seen := make(map[uint64]bool)
	for _, r := range ver.runs {
		if !seen[r.seg.id] {
			seen[r.seg.id] = true
			ver.segs = append(ver.segs, r.seg)
		}
	}
	ver.src = newStitchedReader(ver.runs, ver.n)
	ver.db = storage.NewVirtualDB(base, ver.src, ver.n, ver.names, ver.idx)
}

// sweepOrphans removes leftovers of interrupted commits: patch segments
// other than the open ones and the commit temporaries of every file of
// the base (storage.RemoveTemps). Best-effort — a locked directory only
// delays cleanup to the next Open.
func (st *Store) sweepOrphans(open map[*segment]int) {
	referenced := make(map[string]bool)
	for sg := range open {
		referenced[sg.name] = true
	}
	prefix := filepath.Base(st.base) + "-"
	if matches, err := filepath.Glob(filepath.Join(st.dir, prefix+"*.seg")); err == nil {
		for _, path := range matches {
			// Only <base>-<id>.seg is the store's: db-2-000001.seg belongs
			// to the database db-2 beside base db.
			name := filepath.Base(path)
			_, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".seg"), 10, 64)
			if err == nil && !referenced[name] {
				os.Remove(path)
			}
		}
	}
	storage.RemoveTemps(st.base)
}

// Base returns the store's database path prefix.
func (st *Store) Base() string { return st.base }

// Version returns the current version id.
func (st *Store) Version() (id uint64) {
	st.state.Do(func(s *storeState) { id = s.cur.id })
	return id
}

// Nodes returns the node count of the current version.
func (st *Store) Nodes() (n int64) {
	st.state.Do(func(s *storeState) { n = s.cur.n })
	return n
}

// Names returns the label-name table of the current version. The table
// is immutable (patches that add tags publish a grown copy), so the
// caller may hold it across versions: ids never change meaning, newer
// versions only append.
func (st *Store) Names() (names *tree.Names) {
	st.state.Do(func(s *storeState) { names = s.cur.names })
	return names
}

// History returns the committed operation chain, oldest first.
func (st *Store) History() (out []HistoryEntry) {
	st.state.Do(func(s *storeState) { out = slices.Clone(s.history) })
	return out
}

// Snapshot pins the current version and returns an immutable view of
// it. The caller must Release it; the last release of a superseded
// version deletes whatever patch segments only it referenced.
func (st *Store) Snapshot() (snap *Snapshot) {
	st.state.Do(func(s *storeState) {
		s.vers[s.cur]++
		s.snapRefs++
		snap = &Snapshot{st: st, v: s.cur}
	})
	return snap
}

// Snapshot is a pinned database version. Its DB is a fully functional
// read-only *storage.DB — every scan primitive and evaluation strategy
// runs on it unmodified — valid until Release.
type Snapshot struct {
	st       *Store
	v        *version
	released atomic.Bool
}

// DB returns the version's virtual database handle.
func (s *Snapshot) DB() *storage.DB { return s.v.db }

// Version returns the pinned version id.
func (s *Snapshot) Version() uint64 { return s.v.id }

// Nodes returns the pinned version's node count.
func (s *Snapshot) Nodes() int64 { return s.v.n }

// Names returns the pinned version's label-name table.
func (s *Snapshot) Names() *tree.Names { return s.v.names }

// Release unpins the version. Releasing twice is safe (idempotent).
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.st.state.Do(func(state *storeState) {
		state.snapRefs--
		state.release(s.st.dir, s.v)
	})
}

// release drops one pin of ver; at zero the version dies and its segment
// references unwind — a patch segment no live version uses is closed and
// deleted from dir (the base .arb is closed but always kept on disk).
func (s *storeState) release(dir string, ver *version) {
	s.vers[ver]--
	if s.vers[ver] > 0 {
		return
	}
	delete(s.vers, ver)
	for _, sg := range ver.segs {
		s.segs[sg]--
		if s.segs[sg] > 0 {
			continue
		}
		delete(s.segs, sg)
		if sg.kind == segPatch {
			sg.drop(dir)
		} else {
			sg.f.Close()
		}
	}
}

// publish commits ver as the new current version: segment refcounts move
// to the new version, the store's pin on the old one is released
// (collecting it immediately if no snapshot holds it), and the history
// gains op.
func (st *Store) publish(ver *version, op string, isCompact bool) {
	st.state.Do(func(s *storeState) {
		s.vers[ver] = 1
		for _, sg := range ver.segs {
			s.segs[sg]++
		}
		old := s.cur
		s.cur = ver
		s.history = append(s.history, HistoryEntry{Version: ver.id, Op: op})
		if len(s.history) > maxHistory {
			s.history = s.history[len(s.history)-maxHistory:]
		}
		if isCompact {
			s.compactions++
		} else {
			s.patches++
		}
		s.release(st.dir, old)
	})
}

// manifestFor serialises a version (plus the current history) for the
// commit rename.
func (st *Store) manifestFor(ver *version, op string) *manifest {
	m := &manifest{
		version:   ver.id,
		n:         ver.n,
		names:     ver.nNames,
		codec:     st.codec,
		blockSize: st.blockSize,
		entries:   ver.idx.Entries(),
	}
	for _, sg := range ver.segs {
		m.segs = append(m.segs, manifestSeg{id: sg.id, kind: sg.kind, nodes: sg.nodes, name: sg.name})
	}
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].id < m.segs[j].id })
	for _, r := range ver.runs {
		m.runs = append(m.runs, manifestRun{seg: r.seg.id, logical: r.logical, phys: r.phys, count: r.count})
	}
	st.state.Do(func(s *storeState) {
		m.history = append(slices.Clone(s.history), HistoryEntry{Version: ver.id, Op: op})
	})
	if len(m.history) > maxHistory {
		m.history = m.history[len(m.history)-maxHistory:]
	}
	return m
}

// StoreStats is a point-in-time summary of the store for monitoring.
// Snapshots above zero while the store is quiescent means some reader
// leaked its snapshot and segment GC is wedged.
type StoreStats struct {
	Version      uint64 `json:"version"`      // current version id
	Nodes        int64  `json:"nodes"`        // nodes in the current version
	Segments     int    `json:"segments"`     // open segments (base + live patch segments)
	SegmentBytes int64  `json:"segmentBytes"` // record bytes held by open segments
	LiveVersions int    `json:"liveVersions"` // versions not yet collected (current included)
	Snapshots    int    `json:"snapshots"`    // outstanding snapshot pins
	Patches      int64  `json:"patches"`      // patches committed since the store was opened
	Compactions  int64  `json:"compactions"`  // compactions committed since the store was opened
}

// Stats returns a snapshot of the store's bookkeeping.
func (st *Store) Stats() (out StoreStats) {
	st.state.Do(func(s *storeState) {
		out = StoreStats{
			Version:      s.cur.id,
			Nodes:        s.cur.n,
			Segments:     len(s.segs),
			LiveVersions: len(s.vers),
			Snapshots:    s.snapRefs,
			Patches:      s.patches,
			Compactions:  s.compactions,
		}
		for sg := range s.segs {
			out.SegmentBytes += sg.nodes * storage.NodeSize
		}
	})
	if st.ro != nil && st.ro.Base != "" {
		// A read-only store over a database file serves it as its one
		// segment; over a record image in RAM it holds none.
		out.Segments, out.SegmentBytes = 1, st.ro.N*storage.NodeSize
	}
	return out
}

// Close closes every open segment file, and the database of a read-only
// store that owns it. Outstanding snapshots become invalid — callers
// drain readers first (the server does). Files on disk are left exactly
// as the last commit published them.
func (st *Store) Close() (first error) {
	st.state.Do(func(s *storeState) {
		if s.closed {
			return
		}
		s.closed = true
		if st.closeRO {
			first = st.ro.Close()
		}
		for sg := range s.segs {
			if err := sg.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}
