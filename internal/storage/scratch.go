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
// in files (the state file next to it, a sidecar where the caller names
// it), and the record image of an in-memory tree (OpenTree) keeps them in
// RAM, in a table on its handle — so a run over a tree touches no file
// system.

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

// CreateScratch creates the scratch file name, size bytes long, replacing
// any file of that name. On disk size is only a hint: the file grows as it
// is written. A database in RAM registers the buffer under name. An empty
// name asks for an anonymous scratch file, the run's phase-1 state file: on
// disk a uniquely named temporary next to the database, which Close
// removes; in RAM a buffer nobody else can reach.
func (db *DB) CreateScratch(name string, size int64) (ScratchFile, error) {
	if db.mem == nil {
		if name != "" {
			return os.Create(name)
		}
		f, err := os.CreateTemp(filepath.Dir(db.Base), filepath.Base(db.Base)+"-*.sta")
		if err != nil {
			return nil, err
		}
		return tempFile{f}, nil
	}
	f := make(memFile, size)
	if name != "" {
		db.mem.mu.Lock()
		db.mem.files[name] = f
		db.mem.mu.Unlock()
	}
	return f, nil
}

// tempFile is an anonymous scratch file on disk: closing it removes it.
type tempFile struct{ *os.File }

func (f tempFile) Close() error {
	err := f.File.Close()
	if rerr := os.Remove(f.Name()); err == nil {
		err = rerr
	}
	return err
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
// next to the database and returns it with the function that removes it
// and everything in it. A database in RAM hands out a fresh name prefix
// instead.
func (db *DB) ScratchDir() (string, func(), error) {
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
	tmp, err := os.MkdirTemp(filepath.Dir(db.Base), "arb-aux-*")
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}
