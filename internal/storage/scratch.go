package storage

import (
	"errors"
	"io"
)

// Scratch files are the temporaries of a run over a database: the phase-1
// state file, which the evaluation kernels write and read by node offset,
// is a run's only one. Where it lives is the database's business, never an
// option: a database on disk keeps it in an anonymous file next to it
// (file.go), and the record image of an in-memory tree (OpenTree) keeps it
// in RAM — so a run over a tree touches no file system. Either way a
// scratch file has no name anyone can open it by: it is passed by handle,
// and gone once its handle is closed.

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
