package storage

import (
	"fmt"
	"os"
)

// Auxiliary-mask sidecar files carry per-node predicate bitmasks alongside
// a database, preserving the two-linear-scans property: the disk driver
// reads a window's masks at the offset of the window's first node, in step
// with the .arb scan, backwards in phase 1 and forwards in phase 2. A sidecar of
// stride s holds, for every node in preorder, a vector of s big-endian
// uint16 masks: one slot per multi-pass member of the batch whose rounds
// chain through it (a scalar query is a batch of one, its sidecar of
// stride 1).

// MaskSize is the on-disk size of one auxiliary predicate mask.
const MaskSize = 2

// MaskStride returns the per-node byte width of a mask sidecar holding
// stride mask slots.
func MaskStride(stride int) int64 { return int64(stride) * MaskSize }

// OpenMaskFile opens a mask sidecar and verifies it holds exactly one
// stride-wide mask vector for each of the n nodes.
func OpenMaskFile(path string, n int64, stride int) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := n * MaskStride(stride); st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("storage: mask file %s has %d bytes, want %d (%d nodes × stride %d)",
			path, st.Size(), want, n, stride)
	}
	return f, nil
}
