package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Scratch files are the temporaries of a run over a database: the phase-1
// state file and the aux-mask sidecars chaining multi-pass queries, which
// the evaluation kernels read and write by node offset. Where they live is
// the database's business, never an option: a database on disk keeps them
// in files (next to it, unless the caller names a path), and the record
// image of an in-memory tree (OpenTree) keeps them in RAM, in a table on its
// handle — so a run over a tree touches no file system.

// ScratchFile is the seam the kernels reach a scratch file through: an
// *os.File on disk, a fixed-size buffer in RAM.
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

// memScratch is the scratch table of a database in RAM, by name.
type memScratch struct {
	mu    sync.Mutex
	files map[string]memFile // guarded by: mu
	dirs  int                // guarded by: mu — directories handed out
}

// InMemory reports whether the database is a record image in RAM, whose
// runs keep their scratch files in RAM too.
func (db *DB) InMemory() bool { return db.mem != nil }

// CreateScratch creates the scratch file name, size bytes long, replacing
// any file of that name. On disk size is only a hint: the file grows as it
// is written. A database in RAM registers the buffer under name unless name
// is empty.
func (db *DB) CreateScratch(name string, size int64) (ScratchFile, error) {
	if db.mem == nil {
		return os.Create(name)
	}
	f := make(memFile, size)
	if name != "" {
		db.mem.mu.Lock()
		db.mem.files[name] = f
		db.mem.mu.Unlock()
	}
	return f, nil
}

// OpenMasks opens the aux-mask scratch file name and verifies it holds one
// stride-wide mask vector for each of the database's nodes.
func (db *DB) OpenMasks(name string, stride int) (ScratchFile, error) {
	if db.mem == nil {
		return OpenMaskFile(name, db.N, stride)
	}
	db.mem.mu.Lock()
	f, ok := db.mem.files[name]
	db.mem.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no mask buffer %s", name)
	}
	if want := db.N * MaskStride(stride); int64(len(f)) != want {
		return nil, fmt.Errorf("storage: mask buffer %s has %d bytes, want %d (%d nodes × stride %d)",
			name, len(f), want, db.N, stride)
	}
	return f, nil
}

// RemoveScratch removes the scratch file name.
func (db *DB) RemoveScratch(name string) error {
	if db.mem == nil {
		return os.Remove(name)
	}
	db.mem.mu.Lock()
	delete(db.mem.files, name)
	db.mem.mu.Unlock()
	return nil
}

// ScratchDir creates a private directory for one execution's scratch files
// — under dir, or next to the database when dir is empty — and returns it
// with the function that removes it and everything in it. A database in
// RAM hands out a fresh name prefix instead.
func (db *DB) ScratchDir(dir string) (string, func(), error) {
	if m := db.mem; m != nil {
		m.mu.Lock()
		m.dirs++
		tmp := fmt.Sprintf("arb-aux-%d", m.dirs)
		m.mu.Unlock()
		return tmp, func() {
			m.mu.Lock()
			defer m.mu.Unlock()
			for name := range m.files {
				if strings.HasPrefix(name, tmp+string(filepath.Separator)) {
					delete(m.files, name)
				}
			}
		}, nil
	}
	if dir == "" {
		dir = filepath.Dir(db.Base)
	}
	tmp, err := os.MkdirTemp(dir, "arb-aux-*")
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}
