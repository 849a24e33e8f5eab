package storage

import (
	"fmt"
	"io"
	"sync"
)

// defaultBufSize is the buffer size for sequential (forward and backward)
// I/O: the window passes, BackwardReaders and creation's .arb writer.
const defaultBufSize = 1 << 18

// scanBufPool recycles the 256 KB I/O buffers of the window passes, the
// BackwardReaders and creation's .arb writer, so allocation churn stays
// flat however many passes a frontier or pruning plan opens.
// BackwardReaders return their buffer through Release.
var scanBufPool = sync.Pool{
	New: func() interface{} { return make([]byte, defaultBufSize) },
}

// BackwardReader reads a file from a given offset towards its start in
// fixed-size units, buffering chunk-wise, so the disk still sees
// (reverse-)sequential reads; the benchmark harness measures backward
// reads of a state file with one. It uses ReadAt exclusively, so any
// number of BackwardReaders may share one file handle concurrently.
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
