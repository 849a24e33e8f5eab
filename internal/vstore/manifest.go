// Package vstore implements a versioned extent store over the .arb
// storage model: copy-on-write subtree patching with MVCC snapshots.
//
// A versioned database is the original immutable base.arb file plus a
// chain of append-only patch segments (base-NNNNNN.seg), tied together
// by a base.arbm manifest. The manifest records the current version: a
// sorted list of runs mapping contiguous logical node ranges onto
// (segment, physical offset) pairs, the version's laminar subtree index
// with label signatures, the label-name count in force, and a bounded
// history of the operations that produced it.
//
// Because .arb records are position-independent (the two flag bits say
// only whether a first/second subtree follows — there are no absolute
// pointers), replacing the XML subtree at node v is a pure splice of
// the record stream: write the new subtree's records as a fresh
// segment, drop the old range from the run table, and fix up at most
// one record (a parent's child flag) — O(subtree), never O(database).
// The subtree index is fixed up for the affected path only: entries
// containing the patch stretch or shrink, entries after it shift,
// entries inside it are replaced by the fragment's own entries.
//
// Readers take Snapshot(), which pins a version behind an immutable
// *storage.DB whose record source stitches the runs back into one
// logical address space — every scan primitive (forward, backward,
// range, skipping) and therefore every evaluation strategy runs
// unmodified on any pinned version. The writer publishes a new version
// by atomic manifest rename; releasing the last snapshot of an
// unreachable version drives segment garbage collection. Readers and
// the writer share no locks on the hot path (coordination avoidance:
// queries are read-only per snapshot).
package vstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"arb/internal/storage"
	"arb/internal/tree"
)

// Manifest magics. v2 adds the store's segment write policy (codec and
// block size for newly written patch/compaction segments) right after
// the name count; v1 manifests load as policy raw. Per-segment
// compression is never declared here — each segment file carries its
// own container magic and is sniffed at open.
const (
	manifestMagicV1 = "ARBVST1\n"
	manifestMagic   = "ARBVST2\n"
)

// Validation caps: a manifest is a footnote next to the database, so
// anything claiming more than these is rejected as corrupt rather than
// allocated.
const (
	maxSegments = 1 << 16
	maxRuns     = 1 << 22
	maxEntries  = 1 << 24 // matches the .idx reader's cap
	maxHistory  = 1 << 12
	maxNameLen  = 4096
)

// Segment kinds: the immutable original base.arb file, or an appended
// patch segment (base-NNNNNN.seg) written by one patch or compaction.
const (
	segBase  = 0
	segPatch = 1
)

type manifestSeg struct {
	id    uint64
	kind  uint8
	nodes int64  // node capacity of the file (size / NodeSize)
	name  string // file name relative to the database directory
}

// manifestRun maps the logical node range [logical, logical+count) of
// the version onto the physical node range [phys, phys+count) of one
// segment.
type manifestRun struct {
	seg     uint64
	logical int64
	phys    int64
	count   int64
}

// HistoryEntry is one committed operation in the version chain.
type HistoryEntry struct {
	Version uint64
	Op      string
}

// manifest is the decoded form of a .arbm file: one complete version.
type manifest struct {
	version   uint64
	n         int64 // logical node count
	names     int   // named labels in force (prefix of the .vlab table)
	codec     uint8 // write policy for new segments (storage.CodecRaw = plain)
	blockSize int   // block size for compressed segment writes (0 = default)
	segs      []manifestSeg
	runs      []manifestRun
	entries   []storage.IndexEntry
	history   []HistoryEntry
}

// validate enforces every structural invariant a manifest must satisfy
// before the store will load it: unique segments with safe relative
// names, runs that tile [0, n) exactly and stay inside their segments,
// and a well-formed laminar index. It returns the validated index.
func (m *manifest) validate() (*storage.SubtreeIndex, error) {
	if m.version < 1 {
		return nil, fmt.Errorf("vstore: manifest version %d", m.version)
	}
	if m.n < 1 {
		return nil, fmt.Errorf("vstore: manifest declares %d nodes", m.n)
	}
	if m.names < 0 || m.names > int(tree.MaxLabel-tree.FirstNamedLabel)+1 {
		return nil, fmt.Errorf("vstore: manifest declares %d named labels", m.names)
	}
	if m.codec != storage.CodecRaw && m.codec != storage.CodecLZ {
		return nil, fmt.Errorf("vstore: manifest declares unknown segment codec %d", m.codec)
	}
	if !storage.ValidBlockSize(m.blockSize) {
		return nil, fmt.Errorf("vstore: manifest declares block size %d", m.blockSize)
	}
	segByID := make(map[uint64]manifestSeg, len(m.segs))
	for _, s := range m.segs {
		if _, dup := segByID[s.id]; dup {
			return nil, fmt.Errorf("vstore: duplicate segment id %d", s.id)
		}
		if s.kind != segBase && s.kind != segPatch {
			return nil, fmt.Errorf("vstore: segment %d has unknown kind %d", s.id, s.kind)
		}
		if s.nodes < 1 {
			return nil, fmt.Errorf("vstore: segment %d declares %d nodes", s.id, s.nodes)
		}
		if s.name == "" || s.name == "." || s.name == ".." || filepath.Base(s.name) != s.name {
			return nil, fmt.Errorf("vstore: segment %d has unsafe name %q", s.id, s.name)
		}
		segByID[s.id] = s
	}
	var logical int64
	for _, r := range m.runs {
		s, ok := segByID[r.seg]
		if !ok {
			return nil, fmt.Errorf("vstore: run references unknown segment %d", r.seg)
		}
		if r.logical != logical {
			return nil, fmt.Errorf("vstore: runs do not tile the logical space at node %d", logical)
		}
		if r.count < 1 || r.phys < 0 || r.phys+r.count > s.nodes {
			return nil, fmt.Errorf("vstore: run [%d,%d) outside segment %d (%d nodes)",
				r.phys, r.phys+r.count, r.seg, s.nodes)
		}
		logical += r.count
	}
	if logical != m.n {
		return nil, fmt.Errorf("vstore: runs cover %d of %d nodes", logical, m.n)
	}
	ix, err := storage.NewIndex(m.n, m.entries)
	if err != nil {
		return nil, fmt.Errorf("vstore: manifest index: %w", err)
	}
	return ix, nil
}

// writeManifest persists m to path via a temporary file and atomic
// rename — the commit point of every patch, compaction and bootstrap.
func writeManifest(path string, m *manifest) error {
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
		if _, err := w.WriteString(manifestMagic); err != nil {
			return err
		}
		var buf [8]byte
		put := func(v uint64) error {
			binary.BigEndian.PutUint64(buf[:], v)
			_, err := w.Write(buf[:])
			return err
		}
		putStr := func(s string) error {
			if err := put(uint64(len(s))); err != nil {
				return err
			}
			_, err := w.WriteString(s)
			return err
		}
		if err := put(m.version); err != nil {
			return err
		}
		if err := put(uint64(m.n)); err != nil {
			return err
		}
		if err := put(uint64(m.names)); err != nil {
			return err
		}
		if err := put(uint64(m.codec)); err != nil {
			return err
		}
		if err := put(uint64(m.blockSize)); err != nil {
			return err
		}
		if err := put(uint64(len(m.segs))); err != nil {
			return err
		}
		for _, s := range m.segs {
			if err := put(s.id); err != nil {
				return err
			}
			if err := put(uint64(s.kind)); err != nil {
				return err
			}
			if err := put(uint64(s.nodes)); err != nil {
				return err
			}
			if err := putStr(s.name); err != nil {
				return err
			}
		}
		if err := put(uint64(len(m.runs))); err != nil {
			return err
		}
		for _, r := range m.runs {
			if err := put(r.seg); err != nil {
				return err
			}
			if err := put(uint64(r.logical)); err != nil {
				return err
			}
			if err := put(uint64(r.phys)); err != nil {
				return err
			}
			if err := put(uint64(r.count)); err != nil {
				return err
			}
		}
		if err := put(uint64(len(m.entries))); err != nil {
			return err
		}
		for _, e := range m.entries {
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
		if err := put(uint64(len(m.history))); err != nil {
			return err
		}
		for _, h := range m.history {
			if err := put(h.Version); err != nil {
				return err
			}
			if err := putStr(h.Op); err != nil {
				return err
			}
		}
		return w.Flush()
	}()
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
		// The rename is the commit point, but it is only durable once the
		// directory entry reaches disk.
		werr = storage.SyncDir(filepath.Dir(path))
	}
	return werr
}

// readManifest loads and validates a .arbm file. Corrupt, truncated or
// structurally impossible manifests are rejected with an error — the
// store never loads a version it cannot prove internally consistent.
// The returned index is the validated form of m.entries.
func readManifest(path string) (*manifest, *storage.SubtreeIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(manifestMagic))
	if _, err := io.ReadFull(r, magic); err != nil ||
		(string(magic) != manifestMagic && string(magic) != manifestMagicV1) {
		return nil, nil, fmt.Errorf("vstore: %s is not a manifest file", path)
	}
	v1 := string(magic) == manifestMagicV1
	left := st.Size() - int64(len(magic)) // bytes not yet read
	var buf [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, fmt.Errorf("vstore: manifest %s truncated: %w", path, err)
		}
		left -= 8
		return binary.BigEndian.Uint64(buf[:]), nil
	}
	getInt := func() (int64, error) {
		v, err := get()
		if err != nil {
			return 0, err
		}
		if v > 1<<62 {
			return 0, fmt.Errorf("vstore: manifest %s: field overflows", path)
		}
		return int64(v), nil
	}
	// getCount reads an element count, rejecting one above cap or one
	// whose elements, at least size bytes each, the rest of the file
	// cannot hold — so a corrupt count fails before it is allocated.
	getCount := func(cap, size int64, what string) (int64, error) {
		v, err := getInt()
		if err != nil {
			return 0, err
		}
		if v < 0 || v > cap || v > left/size {
			return 0, fmt.Errorf("vstore: manifest %s declares %d %s", path, v, what)
		}
		return v, nil
	}
	getStr := func() (string, error) {
		n, err := getCount(maxNameLen, 1, "name bytes")
		if err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", fmt.Errorf("vstore: manifest %s truncated: %w", path, err)
		}
		left -= n
		return string(b), nil
	}
	m := &manifest{}
	if m.version, err = get(); err != nil {
		return nil, nil, err
	}
	if m.n, err = getInt(); err != nil {
		return nil, nil, err
	}
	names, err := getInt()
	if err != nil {
		return nil, nil, err
	}
	m.names = int(names)
	if !v1 {
		codec, err := get()
		if err != nil {
			return nil, nil, err
		}
		if codec > 255 {
			return nil, nil, fmt.Errorf("vstore: manifest %s: segment codec %d", path, codec)
		}
		m.codec = uint8(codec)
		blockSize, err := getInt()
		if err != nil {
			return nil, nil, err
		}
		m.blockSize = int(blockSize)
	}
	nseg, err := getCount(maxSegments, 32, "segments")
	if err != nil {
		return nil, nil, err
	}
	m.segs = make([]manifestSeg, nseg)
	for i := range m.segs {
		if m.segs[i].id, err = get(); err != nil {
			return nil, nil, err
		}
		kind, err := get()
		if err != nil {
			return nil, nil, err
		}
		if kind > 255 {
			return nil, nil, fmt.Errorf("vstore: manifest %s: segment kind %d", path, kind)
		}
		m.segs[i].kind = uint8(kind)
		if m.segs[i].nodes, err = getInt(); err != nil {
			return nil, nil, err
		}
		if m.segs[i].name, err = getStr(); err != nil {
			return nil, nil, err
		}
	}
	nrun, err := getCount(maxRuns, 32, "runs")
	if err != nil {
		return nil, nil, err
	}
	m.runs = make([]manifestRun, nrun)
	for i := range m.runs {
		if m.runs[i].seg, err = get(); err != nil {
			return nil, nil, err
		}
		if m.runs[i].logical, err = getInt(); err != nil {
			return nil, nil, err
		}
		if m.runs[i].phys, err = getInt(); err != nil {
			return nil, nil, err
		}
		if m.runs[i].count, err = getInt(); err != nil {
			return nil, nil, err
		}
	}
	nent, err := getCount(maxEntries, 56, "index entries")
	if err != nil {
		return nil, nil, err
	}
	m.entries = make([]storage.IndexEntry, nent)
	for i := range m.entries {
		if m.entries[i].V, err = getInt(); err != nil {
			return nil, nil, err
		}
		if m.entries[i].Size, err = getInt(); err != nil {
			return nil, nil, err
		}
		if m.entries[i].FirstSize, err = getInt(); err != nil {
			return nil, nil, err
		}
		for w := range m.entries[i].Labels {
			v, err := get()
			if err != nil {
				return nil, nil, err
			}
			m.entries[i].Labels[w] = v
		}
	}
	nhist, err := getCount(maxHistory, 16, "history entries")
	if err != nil {
		return nil, nil, err
	}
	m.history = make([]HistoryEntry, nhist)
	for i := range m.history {
		if m.history[i].Version, err = get(); err != nil {
			return nil, nil, err
		}
		if m.history[i].Op, err = getStr(); err != nil {
			return nil, nil, err
		}
	}
	ix, err := m.validate()
	if err != nil {
		return nil, nil, fmt.Errorf("vstore: manifest %s: %w", path, err)
	}
	return m, ix, nil
}
