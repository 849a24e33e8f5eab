package vstore

import (
	"context"
	"fmt"

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
	return st.write(func(ver *version, next *uint64) (*PatchInfo, error) {
		segID := *next
		*next++

		// Compaction is also how a store opened over a raw base converges onto
		// compressed storage after the write policy changes.
		size := ver.n * storage.NodeSize
		seg, err := st.newSegment(ctx, segID, ver.src, size)
		if err != nil {
			return nil, err
		}
		committed := false
		defer func() {
			if !committed {
				seg.drop(st.dir)
			}
		}()
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
	})
}
