package vstore

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"arb/internal/storage"
)

// Compact rewrites the current version into a single fresh segment: the
// stitched logical record stream is copied out linearly, the run table
// collapses to one run, and the index and name table carry over
// unchanged. Once the last snapshot of the old chain is released, every
// superseded patch segment is deleted — compaction is how a
// long-patched store sheds its history. The commit is atomic exactly
// like a patch; concurrent readers are unaffected.
func (st *Store) Compact(ctx context.Context) (*PatchInfo, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	snap := st.Snapshot()
	defer snap.Release()
	ver := snap.v

	st.mu.Lock()
	segID := st.nextSeg
	st.nextSeg++
	st.mu.Unlock()

	name := fmt.Sprintf("%s-%06d.seg", filepath.Base(st.base), segID)
	path := filepath.Join(st.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	committed := false
	defer func() {
		if !committed {
			f.Close()
			os.Remove(path)
		}
	}()
	// Copy in bounded chunks so cancellation is honoured mid-copy. With a
	// compressing write policy the stream is re-blocked through a
	// BlockWriter — compaction is also how a store opened over a raw base
	// converges onto compressed storage after the policy changes.
	var w io.Writer = f
	var bw *storage.BlockWriter
	size := ver.n * storage.NodeSize
	if st.codec != storage.CodecRaw && size >= compressSegmentMin {
		var err error
		if bw, err = storage.NewBlockWriter(f, st.blockSize); err != nil {
			return nil, err
		}
		w = bw
	}
	cancel := storage.NewCanceller(ctx)
	const chunk = int64(1 << 20)
	for off := int64(0); off < size; off += chunk {
		if err := cancel.Step(); err != nil {
			return nil, err
		}
		end := off + chunk
		if end > size {
			end = size
		}
		if _, err := io.Copy(w, io.NewSectionReader(ver.src, off, end-off)); err != nil {
			return nil, err
		}
	}
	if bw != nil {
		if err := bw.Close(); err != nil {
			return nil, err
		}
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
	if logical != size {
		return nil, fmt.Errorf("vstore: internal: compacted segment holds %d logical bytes, want %d", logical, size)
	}

	seg := &segment{id: segID, kind: segPatch, nodes: ver.n, name: name, f: f, src: src}
	newVer := &version{
		id:     ver.id + 1,
		n:      ver.n,
		runs:   []run{{seg: seg, logical: 0, phys: 0, count: ver.n}},
		idx:    ver.idx,
		names:  ver.names,
		nNames: ver.nNames,
	}
	newVer.finish(st.base)
	op := fmt.Sprintf("compact (%d nodes, %d segments -> 1)", ver.n, len(ver.segs))
	if err := writeManifest(st.base+".arbm", st.manifestFor(newVer, op)); err != nil {
		return nil, err
	}
	committed = true
	st.publish(newVer, op, true)
	return &PatchInfo{
		Version:      newVer.id,
		Op:           op,
		Nodes:        ver.n,
		Delta:        0,
		SegmentBytes: size,
	}, nil
}
