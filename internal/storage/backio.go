package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// defaultBufSize is the buffer size for sequential (forward and backward)
// I/O. Backward scans read the file in large chunks from the end so the
// disk still sees (reverse-)sequential access patterns.
const defaultBufSize = 1 << 18

// scanBufPool recycles the 256 KB I/O buffers of the window passes and the
// BackwardReaders, so allocation churn stays flat however many passes a
// frontier or pruning plan opens. BackwardReaders return their buffer
// through Release.
var scanBufPool = sync.Pool{
	New: func() interface{} { return make([]byte, defaultBufSize) },
}

// BackwardReader reads a file from a given offset towards its start in
// fixed-size units, buffering chunk-wise: database creation reads its
// event file backwards with one. It uses ReadAt exclusively, so any number
// of BackwardReaders may share one file handle concurrently.
type BackwardReader struct {
	f        io.ReaderAt
	pos      int64 // file offset of the start of buf's valid region
	raw      []byte
	buf      []byte
	have     int // number of valid bytes at the end of buf region
	unitSize int
}

// NewBackwardReader returns a reader over f positioned at offset end,
// yielding units of unitSize bytes from the end backwards to offset 0
// (Next returns io.EOF there). end must be a multiple of unitSize.
func NewBackwardReader(f io.ReaderAt, end int64, unitSize int) (*BackwardReader, error) {
	if end < 0 || end%int64(unitSize) != 0 {
		return nil, fmt.Errorf("storage: section size %d not a multiple of unit size %d", end, unitSize)
	}
	raw := scanBufPool.Get().([]byte)
	return &BackwardReader{f: f, pos: end, unitSize: unitSize, raw: raw,
		buf: raw[:defaultBufSize/unitSize*unitSize]}, nil
}

// Release returns the reader's buffer to the shared pool. The reader (and
// any slice Next returned) must not be used afterwards. Releasing is
// optional — an unreleased buffer is simply garbage-collected.
func (r *BackwardReader) Release() {
	if r.raw != nil {
		scanBufPool.Put(r.raw)
		r.raw, r.buf, r.have = nil, nil, 0
	}
}

// Next returns the next unit (moving backwards), or io.EOF when the start
// of the section has been reached. The returned slice is valid until the
// following call.
func (r *BackwardReader) Next() ([]byte, error) {
	if r.have == 0 {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	r.have -= r.unitSize
	return r.buf[r.have : r.have+r.unitSize], nil
}

// fill reads the buffer-sized piece of the file that precedes pos.
func (r *BackwardReader) fill() error {
	if r.pos == 0 {
		return io.EOF
	}
	n := min(int64(len(r.buf)), r.pos)
	if got, err := r.f.ReadAt(r.buf[:n], r.pos-n); got < int(n) {
		return err
	}
	r.pos -= n
	r.have = int(n)
	return nil
}

// BackwardWriter writes a file back-to-front: the first Prepend call
// produces the bytes at the end of the file, the last one the bytes at
// offset 0. The total size must be known in advance. Writes are buffered
// so the disk sees large reverse-sequential writes.
type BackwardWriter struct {
	f    *os.File
	pos  int64 // file offset just past the next flush region
	buf  []byte
	used int // bytes currently occupied at the *end* of buf
	err  error
}

// NewBackwardWriter returns a writer that will fill f from offset size
// down to 0.
func NewBackwardWriter(f *os.File, size int64) *BackwardWriter {
	return &BackwardWriter{f: f, pos: size, buf: make([]byte, defaultBufSize)}
}

// Prepend writes b logically before everything written so far.
func (w *BackwardWriter) Prepend(b []byte) {
	if w.err != nil {
		return
	}
	for len(b) > 0 {
		free := len(w.buf) - w.used
		if free == 0 {
			w.flush()
			if w.err != nil {
				return
			}
			free = len(w.buf)
		}
		n := len(b)
		if n > free {
			n = free
		}
		// Copy the *tail* of b into the space just before the currently
		// used region at the end of buf.
		copy(w.buf[len(w.buf)-w.used-n:len(w.buf)-w.used], b[len(b)-n:])
		w.used += n
		b = b[:len(b)-n]
	}
}

func (w *BackwardWriter) flush() {
	if w.used == 0 || w.err != nil {
		return
	}
	start := w.pos - int64(w.used)
	if start < 0 {
		w.err = fmt.Errorf("storage: backward writer overflow (wrote past offset 0)")
		return
	}
	if _, err := w.f.WriteAt(w.buf[len(w.buf)-w.used:], start); err != nil {
		w.err = err
		return
	}
	w.pos = start
	w.used = 0
}

// Close flushes the writer and verifies the file was filled exactly.
func (w *BackwardWriter) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	if w.pos != 0 {
		return fmt.Errorf("storage: backward writer finished at offset %d, want 0", w.pos)
	}
	return nil
}
