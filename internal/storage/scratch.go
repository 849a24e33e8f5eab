package storage

import (
	"errors"
	"io"
)

// Scratch files are the temporaries of a run over a database: the phase-1
// state file and the aux-mask sidecars chaining multi-pass queries, which
// the evaluation kernels read and write by node offset. Where they live is
// the database's business, never an option: a database on disk keeps them
// in anonymous files next to it (file.go), and the record image of an
// in-memory tree (OpenTree) keeps them in RAM — so a run over a tree
// touches no file system. Either way a scratch file has no name anyone
// can open it by: it is passed by handle, from the round that writes it
// to the round that reads it, and gone once its handle is closed.
//
// An aux-mask sidecar carries per-node predicate bitmasks alongside the
// database, preserving the two-linear-scans property: the disk driver
// reads a window's masks at the offset of the window's first node, in step
// with the .arb scan, backwards in phase 1 and forwards in phase 2. A
// sidecar of stride s holds, for every node in preorder, a vector of s
// big-endian uint16 masks: one slot per multi-pass member of the batch
// whose rounds chain through it (a scalar query is a batch of one, its
// sidecar of stride 1).

// MaskSize is the on-disk size of one auxiliary predicate mask.
const MaskSize = 2

// MaskStride returns the per-node byte width of a mask sidecar holding
// stride mask slots.
func MaskStride(stride int) int64 { return int64(stride) * MaskSize }

// ScratchFile is the seam the kernels reach a scratch file through: a
// temporary file on disk, a fixed-size buffer in RAM.
type ScratchFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// memFile is a scratch file in RAM. Its size is fixed at creation, and
// bytes never written read as zeros, like the holes of a sparse file.
type memFile []byte

func (m memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m)) {
		return 0, io.EOF
	}
	n := copy(p, m[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m)) {
		return 0, errors.New("storage: write past the end of a scratch buffer")
	}
	return copy(m[off:], p), nil
}

func (memFile) Close() error { return nil }

// CreateScratch creates an anonymous scratch file of the database for
// size bytes: on disk a uniquely named temporary next to it, which grows as
// it is written (pre-sizing it slows the commits of a concurrent writer to
// the directory), in RAM a buffer of exactly size bytes. The caller holds
// the only handle, and closing it removes the file.
func (db *DB) CreateScratch(size int64) (ScratchFile, error) {
	if db.inRAM {
		return make(memFile, size), nil
	}
	return createTemp(db.Base, ".sta")
}
