package storage

import (
	"context"
	"errors"
	"fmt"
)

// ErrMalformed reports records that do not form a binary tree in preorder:
// a node announcing a subtree the scanned range does not hold, or a range
// that ends with subtrees still pending. Over a whole database it means a
// corrupt .arb file; over a chunk cut from the subtree index, a stale index.
var ErrMalformed = errors.New("storage: malformed .arb")

// cancelEvery is the node granularity of the context-cancellation checks
// inside the scan loops: coarse enough that the check is invisible in the
// per-node cost, fine enough that scans of huge databases abort promptly.
const cancelEvery = 8192

// WindowNodes is the most records one window callback receives: windows are
// cut to the cancellation granularity, so a pass polls its context once per
// window and consumers can size per-window buffers from it.
const WindowNodes = cancelEvery

// ForwardWindows and BackwardWindows are the two read loops under every
// scan of a database: one linear pass over the node range [lo, hi), in
// preorder or reverse preorder, that never reads the subtree extents in
// skip (sorted by Root, disjoint, inside the range). window receives the
// raw big-endian records of the nodes [first, first+len(recs)/NodeSize) —
// a slice of the pass's one pooled read buffer, valid during the call; a
// backward pass hands out windows in descending order, and its consumer
// walks each from its end. hole is called for every skipped extent at its
// position in the pass. ix, when not nil, is the index skip was cut from:
// a gap between holes whose every node roots one of its entries is served
// from the entries (IndexEntry.Record), not read — the one glue record
// between two skipped extents then costs no block decode. The loops own
// the reads, the skip-list validation, the cancellation poll (once per
// window) and the Bytes, IndexBytes and PhysicalBytes columns of st;
// stacks, node counts and what a hole stands for (and whether its bytes
// count as SkippedBytes) belong to the consumer. Callback errors pass
// through unwrapped.
func (db *DB) ForwardWindows(ctx context.Context, lo, hi int64, skip []Extent, ix *SubtreeIndex, st *ScanStats, hole func(Extent) error, window func(first int64, recs []byte) error) error {
	if err := db.checkWindows(lo, hi, skip, ix); err != nil {
		return err
	}
	buf := scanBufPool.Get().([]byte)
	defer scanBufPool.Put(buf)
	v := lo
	for i := 0; i <= len(skip); i++ {
		gapEnd := hi
		if i < len(skip) {
			gapEnd = skip[i].Root
		}
		at, served := ix.span(v, gapEnd)
		if !served {
			st.PhysicalBytes += db.PhysSpan(v, gapEnd)
		}
		for v < gapEnd {
			block := buf[:min(int64(len(buf)), (gapEnd-v)*NodeSize)]
			if served {
				at = ix.records(block, at)
				st.IndexBytes += int64(len(block))
			} else if n, err := db.arb.ReadAt(block, v*NodeSize); n < len(block) {
				return fmt.Errorf("storage: forward scan: %w", err)
			}
			st.Bytes += int64(len(block))
			for len(block) > 0 {
				if err := pollCtx(ctx); err != nil {
					return err
				}
				recs := block[:min(len(block), WindowNodes*NodeSize)]
				if err := window(v, recs); err != nil {
					return err
				}
				v += int64(len(recs) / NodeSize)
				block = block[len(recs):]
			}
		}
		if i < len(skip) {
			if err := hole(skip[i]); err != nil {
				return err
			}
			v = skip[i].End()
		}
	}
	return nil
}

// BackwardWindows is the reverse-preorder pass; see ForwardWindows. Reads
// are laid from the end of each gap, so the medium still sees large
// (reverse-)sequential requests.
func (db *DB) BackwardWindows(ctx context.Context, lo, hi int64, skip []Extent, ix *SubtreeIndex, st *ScanStats, hole func(Extent) error, window func(first int64, recs []byte) error) error {
	if err := db.checkWindows(lo, hi, skip, ix); err != nil {
		return err
	}
	buf := scanBufPool.Get().([]byte)
	defer scanBufPool.Put(buf)
	end := hi
	for i := len(skip) - 1; i >= -1; i-- {
		gapLo := lo
		if i >= 0 {
			gapLo = skip[i].End()
		}
		at, served := ix.span(gapLo, end)
		if !served {
			st.PhysicalBytes += db.PhysSpan(gapLo, end)
		}
		for end > gapLo {
			block := buf[:min(int64(len(buf)), (end-gapLo)*NodeSize)]
			end -= int64(len(block) / NodeSize)
			if served {
				ix.records(block, at+int(end-gapLo))
				st.IndexBytes += int64(len(block))
			} else if n, err := db.arb.ReadAt(block, end*NodeSize); n < len(block) {
				return fmt.Errorf("storage: backward scan: %w", err)
			}
			st.Bytes += int64(len(block))
			for len(block) > 0 {
				if err := pollCtx(ctx); err != nil {
					return err
				}
				cut := max(0, len(block)-WindowNodes*NodeSize)
				if err := window(end+int64(cut/NodeSize), block[cut:]); err != nil {
					return err
				}
				block = block[:cut]
			}
		}
		if i >= 0 {
			if err := hole(skip[i]); err != nil {
				return err
			}
			end = skip[i].Root
		}
	}
	return nil
}

// checkWindows validates a pass's range against the database, its skip
// list against the range and its index against the database. A range
// outside the database, or an index of another node count, can only come
// from a chunk index that describes some other file.
func (db *DB) checkWindows(lo, hi int64, skip []Extent, ix *SubtreeIndex) error {
	if lo < 0 || lo > hi || hi > db.N {
		return fmt.Errorf("%w: [%d,%d) out of range", ErrBadExtent, lo, hi)
	}
	if ix != nil && ix.N != db.N {
		return fmt.Errorf("%w: an index of %d nodes over %d", ErrBadExtent, ix.N, db.N)
	}
	at := lo
	for _, x := range skip {
		if x.Root < at || x.Size <= 0 || x.End() > hi {
			return fmt.Errorf("storage: skip extents unsorted, overlapping or out of range")
		}
		at = x.End()
	}
	return nil
}

// pollCtx is the scans' cancellation check. A nil ctx never cancels: it
// is the explicit signal of the contextless creation paths (database
// builds have no context in their API), not a shorthand for Background —
// evaluation paths must always thread the caller's context. Two ci.sh
// ratchets hold internal/ to that: no context.Background or
// context.TODO, and no call with a literal nil first of several
// arguments but create's BuildIndex(nil, db, 0).
func pollCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
