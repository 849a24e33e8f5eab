package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"arb/internal/guard"
)

// Block-compressed .arb containers (database format v3).
//
// A v3 database keeps the logical record stream of Section 5 — one
// 2-byte preorder record per node — but stores it as independently
// compressed extents ("blocks") of a fixed logical size, so both linear
// scans read a fraction of the bytes while every scan primitive, pruning
// plan and evaluation strategy runs unmodified over the logical address
// space. The container is self-describing: a block table at the end maps
// each logical block to its physical offset, stored length and encoding,
// and blocks that do not compress stay raw, so the worst case costs one
// table lookup and a memcpy per block.
//
// Layout of a container file (all integers big-endian):
//
//	header  (16 bytes): magic "ARBZEXT3", codec byte, 3 reserved bytes,
//	                    uint32 logical block size
//	blocks  (variable): physical block payloads, in logical order
//	table   (8 bytes per block): uint32 stored length, encoding byte
//	                    (0 = raw, 1 = LZ), 3 reserved
//	footer  (32 bytes): uint64 table offset, uint64 block count,
//	                    uint64 logical size in bytes, magic "ARBZEND3"
//	pad     (0-1 bytes): one zero byte iff the file size would otherwise
//	                    be a multiple of NodeSize — pre-v3 readers then
//	                    reject the file with a clear size error instead
//	                    of misreading compressed bytes as records.
//
// Decompression happens behind io.ReaderAt: the block source keeps a
// small direct-mapped cache of decompressed blocks (per-slot mutexes, so
// concurrent scans at different file positions never serialise),
// decodes an LZ block only as far as its reads reach, and recycles
// compressed-input scratch through a sync.Pool.

// Codec identifiers, as stored in container headers and vstore
// manifests. CodecRaw marks a plain uncompressed .arb file or segment;
// CodecLZ, the built-in byte-oriented LZ, is the one compressing codec.
const (
	CodecRaw = 0
	CodecLZ  = 1
)

// CodecName returns the human-readable codec name.
func CodecName(codec uint8) string {
	switch codec {
	case CodecRaw:
		return "raw"
	case CodecLZ:
		return "lz"
	}
	return fmt.Sprintf("codec-%d", codec)
}

const (
	compressMagic    = "ARBZEXT3"
	compressEndMagic = "ARBZEND3"
	compressHeader   = 16
	compressFooter   = 32
	tableEntrySize   = 8

	// DefaultBlockSize is the default logical bytes per compressed
	// extent: large enough that per-block overhead vanishes and the LZ
	// window sees long repetition, small enough that pruning plans and
	// backward chunk reads decompress only what they touch.
	DefaultBlockSize = 1 << 18

	minBlockSize = 1 << 12
	maxBlockSize = 1 << 24

	// blockCacheSlots is the size of the per-container direct-mapped
	// decompressed-block cache. Sequential scans hit the same block for
	// every record in it; concurrent scans at different positions map to
	// different slots and never contend. A slot holds a decoded prefix of
	// its block, so a read that touches one record of a block decodes up
	// to that record, not the block; two blocks 32 apart still evict each
	// other. A pruned scan's one-record glue between skipped extents
	// costs no decode and no slot: the subtree index serves every gap it
	// holds whole (ForwardWindows), so the slots hold the blocks of the
	// extents the scan reads.
	blockCacheSlots = 32

	// maxDecodeRatio bounds the logical bytes one stored byte of an LZ
	// block can decode to: a match extension byte adds at most 255 bytes.
	// Parsing rejects a block table that claims more, so a container never
	// makes a reader allocate more than this many times its size.
	maxDecodeRatio = 255
)

// blockEnt describes one stored block.
type blockEnt struct {
	len uint32 // stored (physical) length
	enc uint8  // CodecRaw or CodecLZ
}

// lzScratchPool recycles the compressed-input buffers block decodes read
// stored bytes into. It holds pointers, so Put does not allocate, and a
// buffer grows to the largest stored length it has been asked for.
var lzScratchPool = sync.Pool{
	New: func() any { return new([]byte) },
}

func getScratch(n int) *[]byte {
	b := lzScratchPool.Get().(*[]byte)
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return b
}

func putScratch(b *[]byte) { lzScratchPool.Put(b) }

// blockSource serves a container's logical record space [0, logical)
// through io.ReaderAt, decompressing blocks on demand.
type blockSource struct {
	phys      io.ReaderAt
	blockSize int
	logical   int64
	offs      []int64 // physical start of block i; len = blocks+1
	enc       []uint8
	physSum   []int64 // prefix sums of stored lengths; len = blocks+1
	slots     []*guard.Mutex[blockSlot]
	decoded   atomic.Int64 // block bytes decoded so far; read by tests
}

// blockSlot is one entry of a block source's decoded-block cache.
type blockSlot struct {
	idx  int64  // block index held, -1 when empty
	data []byte // the block's logical bytes; valid below dec
	dec  int    // bytes of data decoded
	si   int    // stored-stream offset the decode resumes at
}

// ContainerInfo summarises a compressed container for stats surfaces.
type ContainerInfo struct {
	Codec        uint8
	BlockSize    int
	Blocks       int
	LogicalBytes int64 // record bytes the container represents
	PhysBytes    int64 // container file size (payload + table + framing)
	PayloadBytes int64 // stored block payload bytes only
}

// Ratio returns the logical-to-physical compression ratio.
func (ci ContainerInfo) Ratio() float64 {
	if ci.PhysBytes == 0 {
		return 0
	}
	return float64(ci.LogicalBytes) / float64(ci.PhysBytes)
}

// sniffContainer reports whether the reader starts with the v3 container
// magic. size is the physical file size.
func sniffContainer(r io.ReaderAt, size int64) bool {
	if size < compressHeader+compressFooter {
		return false
	}
	var magic [8]byte
	if _, err := r.ReadAt(magic[:], 0); err != nil {
		return false
	}
	return string(magic[:]) == compressMagic
}

// OpenContainer sniffs r (size physical bytes). When r holds a v3
// compressed container it returns a ReaderAt serving the container's
// logical record space plus its description; otherwise ok is false and
// the caller should read r as a plain record stream. vstore uses this
// to open patch segments and manifested base files whose compression is
// discovered per file, not declared by the manifest.
func OpenContainer(r io.ReaderAt, size int64) (src io.ReaderAt, info ContainerInfo, ok bool, err error) {
	if !sniffContainer(r, size) {
		return nil, ContainerInfo{}, false, nil
	}
	bs, err := openBlockSource(r, size)
	if err != nil {
		return nil, ContainerInfo{}, false, err
	}
	return bs, bs.info(), true, nil
}

// ValidBlockSize reports whether blockSize is acceptable for a block
// writer: zero (the default) or within the container's legal range.
func ValidBlockSize(blockSize int) bool {
	return blockSize == 0 || (blockSize >= minBlockSize && blockSize <= maxBlockSize)
}

// openBlockSource parses a container served by r (size physical bytes)
// and returns a logical-space ReaderAt over it.
func openBlockSource(r io.ReaderAt, size int64) (*blockSource, error) {
	var hdr [compressHeader]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("storage: container header: %w", err)
	}
	if string(hdr[:8]) != compressMagic {
		return nil, fmt.Errorf("storage: not a compressed container")
	}
	if codec := hdr[8]; codec != CodecLZ {
		return nil, fmt.Errorf("storage: container uses unknown codec %d", codec)
	}
	blockSize := int(binary.BigEndian.Uint32(hdr[12:16]))
	if blockSize < minBlockSize || blockSize > maxBlockSize {
		return nil, fmt.Errorf("storage: container block size %d out of range", blockSize)
	}
	// The footer sits at the end, behind the pad byte the writer adds
	// when the footer would otherwise end the file at an even size.
	if size%NodeSize == 0 {
		return nil, fmt.Errorf("storage: container size %d lacks the odd-size guard", size)
	}
	footOff := size - compressFooter
	var foot [compressFooter]byte
	if _, err := r.ReadAt(foot[:], footOff); err != nil {
		return nil, fmt.Errorf("storage: container footer: %w", err)
	}
	if string(foot[24:32]) != compressEndMagic {
		footOff--
		if _, err := r.ReadAt(foot[:], footOff); err != nil {
			return nil, fmt.Errorf("storage: container footer: %w", err)
		}
		if string(foot[24:32]) != compressEndMagic {
			return nil, fmt.Errorf("storage: container footer magic missing (truncated file?)")
		}
	}
	tableOff := int64(binary.BigEndian.Uint64(foot[0:8]))
	blocks := int64(binary.BigEndian.Uint64(foot[8:16]))
	logical := int64(binary.BigEndian.Uint64(foot[16:24]))
	if logical < 0 || logical%NodeSize != 0 {
		return nil, fmt.Errorf("storage: container declares %d logical bytes", logical)
	}
	wantBlocks := (logical + int64(blockSize) - 1) / int64(blockSize)
	if blocks != wantBlocks || blocks > 1<<32 {
		return nil, fmt.Errorf("storage: container declares %d blocks, want %d", blocks, wantBlocks)
	}
	if tableOff < compressHeader || tableOff+blocks*tableEntrySize != footOff {
		return nil, fmt.Errorf("storage: container table at %d does not meet the footer at %d", tableOff, footOff)
	}
	table := make([]byte, blocks*tableEntrySize)
	if _, err := r.ReadAt(table, tableOff); err != nil {
		return nil, fmt.Errorf("storage: container table: %w", err)
	}
	bs := &blockSource{
		phys:      r,
		blockSize: blockSize,
		logical:   logical,
		offs:      make([]int64, blocks+1),
		enc:       make([]uint8, blocks),
		physSum:   make([]int64, blocks+1),
		slots:     make([]*guard.Mutex[blockSlot], blockCacheSlots),
	}
	off := int64(compressHeader)
	for i := int64(0); i < blocks; i++ {
		ln := int64(binary.BigEndian.Uint32(table[i*tableEntrySize:]))
		enc := table[i*tableEntrySize+4]
		if enc != CodecRaw && enc != CodecLZ {
			return nil, fmt.Errorf("storage: block %d uses unknown encoding %d", i, enc)
		}
		want := bs.blockLen(i)
		if ln < 1 || (enc == 0 && ln != want) || ln > want+lzMaxExpansion(int(want)) || (enc != 0 && want > ln*maxDecodeRatio) {
			return nil, fmt.Errorf("storage: block %d stored length %d impossible for %d logical bytes", i, ln, want)
		}
		bs.offs[i] = off
		bs.enc[i] = enc
		bs.physSum[i+1] = bs.physSum[i] + ln
		off += ln
	}
	bs.offs[blocks] = off
	if off != tableOff {
		return nil, fmt.Errorf("storage: container blocks end at %d, table starts at %d", off, tableOff)
	}
	for i := range bs.slots {
		bs.slots[i] = guard.New(blockSlot{idx: -1})
	}
	return bs, nil
}

// blockLen returns the logical length of block i (the last block may be
// short).
func (bs *blockSource) blockLen(i int64) int64 {
	start := i * int64(bs.blockSize)
	if rest := bs.logical - start; rest < int64(bs.blockSize) {
		return rest
	}
	return int64(bs.blockSize)
}

// info summarises the container.
func (bs *blockSource) info() ContainerInfo {
	blocks := len(bs.enc)
	return ContainerInfo{
		Codec:        CodecLZ,
		BlockSize:    bs.blockSize,
		Blocks:       blocks,
		LogicalBytes: bs.logical,
		PhysBytes:    bs.offs[blocks] + int64(blocks)*tableEntrySize + compressFooter + 1,
		PayloadBytes: bs.physSum[blocks],
	}
}

// physSpan returns the stored bytes of every block overlapping the
// logical byte range [lo, hi) — the physical I/O cost of scanning that
// range. It is block-granular: a scan touching any byte of a block
// reads the block's stored bytes, although an LZ block is decoded only
// up to the last byte read (readBlock).
func (bs *blockSource) physSpan(lo, hi int64) int64 {
	if hi > bs.logical {
		hi = bs.logical
	}
	if lo < 0 || lo >= hi {
		return 0
	}
	b0 := lo / int64(bs.blockSize)
	b1 := (hi + int64(bs.blockSize) - 1) / int64(bs.blockSize)
	return bs.physSum[b1] - bs.physSum[b0]
}

// ReadAt implements io.ReaderAt over the logical record space.
func (bs *blockSource) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative read offset %d", off)
	}
	n := 0
	for n < len(p) && off < bs.logical {
		i := off / int64(bs.blockSize)
		blockStart := i * int64(bs.blockSize)
		m, err := bs.readBlock(i, p[n:], off-blockStart)
		n += m
		off += int64(m)
		if err != nil {
			return n, err
		}
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// readBlock copies block i's bytes from logical offset rel into p,
// decompressing through the slot cache only as far as the copy reaches.
func (bs *blockSource) readBlock(i int64, p []byte, rel int64) (n int, err error) {
	want := bs.blockLen(i)
	if rel >= want {
		return 0, fmt.Errorf("storage: block %d read at %d past its %d bytes", i, rel, want)
	}
	need := min(rel+int64(len(p)), want)
	bs.slots[i%blockCacheSlots].Do(func(s *blockSlot) {
		if s.idx != i || int64(s.dec) < need {
			if err = bs.fillSlot(s, i, int(need)); err != nil {
				return
			}
		}
		n = copy(p, s.data[rel:s.dec])
	})
	return n, err
}

// fillSlot decodes block i into the slot, which the caller (readBlock)
// holds, until at least need bytes are valid. An LZ block the
// slot already holds a prefix of resumes where that prefix ended, from
// a re-read of the stored bytes not yet consumed; any other slot starts
// over. Raw blocks are copied whole. On error the slot is
// left empty, so no later read is served bytes from a failed decode.
func (bs *blockSource) fillSlot(s *blockSlot, i int64, need int) error {
	if s.idx != i {
		want := int(bs.blockLen(i))
		if cap(s.data) < want {
			s.data = make([]byte, want, min(int64(bs.blockSize), bs.logical))
		}
		s.data = s.data[:want]
		s.dec, s.si = 0, 0
	}
	s.idx = -1
	dec, si, err := bs.decode(s.data, i, s.dec, s.si, need)
	if err != nil {
		return err
	}
	bs.decoded.Add(int64(dec - s.dec))
	s.idx, s.dec, s.si = i, dec, si
	return nil
}

// decode extends the decoded prefix [0, dec) of block i in data to at
// least need bytes, where si is the stored-stream offset that prefix
// ended at, and returns the new prefix length and stream offset.
func (bs *blockSource) decode(data []byte, i int64, dec, si, need int) (int, int, error) {
	if bs.enc[i] == 0 {
		if _, err := bs.phys.ReadAt(data, bs.offs[i]); err != nil {
			return 0, 0, fmt.Errorf("storage: raw block %d: %w", i, err)
		}
		return len(data), 0, nil
	}
	comp := getScratch(int(bs.offs[i+1]-bs.offs[i]) - si)
	defer putScratch(comp)
	if _, err := bs.phys.ReadAt(*comp, bs.offs[i]+int64(si)); err != nil {
		return 0, 0, fmt.Errorf("storage: compressed block %d: %w", i, err)
	}
	dec, n, err := lzDecodePrefix(data, *comp, dec, need)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: block %d: %w", i, err)
	}
	return dec, si + n, nil
}

// BlockWriter streams a logical record stream into a container file:
// Write chunks the bytes into blocks, compresses each with LZ (falling
// back to raw storage when compression does not pay), and Close appends the block table and footer. The caller
// owns f and is responsible for syncing and closing it after Close.
type BlockWriter struct {
	w         *bufio.Writer
	blockSize int
	buf       []byte
	used      int
	entries   []blockEnt
	logical   int64
	physOff   int64
	scratch   []byte
	closed    bool
	err       error
}

// NewBlockWriter starts an LZ container with the given logical block
// size (0 selects DefaultBlockSize) on f.
func NewBlockWriter(f io.Writer, blockSize int) (*BlockWriter, error) {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < minBlockSize || blockSize > maxBlockSize {
		return nil, fmt.Errorf("storage: block size %d out of range [%d, %d]", blockSize, minBlockSize, maxBlockSize)
	}
	blockSize -= blockSize % NodeSize // whole records per block
	bw := &BlockWriter{
		w:         bufio.NewWriterSize(f, defaultBufSize),
		blockSize: blockSize,
		buf:       make([]byte, blockSize),
	}
	var hdr [compressHeader]byte
	copy(hdr[:8], compressMagic)
	hdr[8] = CodecLZ
	binary.BigEndian.PutUint32(hdr[12:16], uint32(blockSize))
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	bw.physOff = compressHeader
	return bw, nil
}

// Write implements io.Writer over the logical record stream.
func (bw *BlockWriter) Write(p []byte) (int, error) {
	if bw.err != nil {
		return 0, bw.err
	}
	if bw.closed {
		return 0, fmt.Errorf("storage: write to a closed block writer")
	}
	total := len(p)
	for len(p) > 0 {
		n := copy(bw.buf[bw.used:], p)
		bw.used += n
		p = p[n:]
		if bw.used == bw.blockSize {
			if err := bw.flushBlock(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// flushBlock encodes and emits the staged block.
func (bw *BlockWriter) flushBlock() error {
	if bw.used == 0 {
		return nil
	}
	src := bw.buf[:bw.used]
	if cap(bw.scratch) < len(src) {
		bw.scratch = make([]byte, 0, len(src))
	}
	payload, enc := src, uint8(CodecRaw) // incompressible: store raw
	if out, ok := lzCompress(bw.scratch[:0], src); ok {
		bw.scratch = out
		payload, enc = out, CodecLZ
	}
	if _, err := bw.w.Write(payload); err != nil {
		bw.err = err
		return err
	}
	bw.entries = append(bw.entries, blockEnt{len: uint32(len(payload)), enc: enc})
	bw.logical += int64(bw.used)
	bw.physOff += int64(len(payload))
	bw.used = 0
	return nil
}

// Close flushes the final block and writes the table and footer. It
// does not sync or close the underlying file.
func (bw *BlockWriter) Close() error {
	if bw.err != nil {
		return bw.err
	}
	if bw.closed {
		return nil
	}
	bw.closed = true
	if err := bw.flushBlock(); err != nil {
		return err
	}
	tableOff := bw.physOff
	var ent [tableEntrySize]byte
	for _, e := range bw.entries {
		binary.BigEndian.PutUint32(ent[0:4], e.len)
		ent[4] = e.enc
		ent[5], ent[6], ent[7] = 0, 0, 0
		if _, err := bw.w.Write(ent[:]); err != nil {
			bw.err = err
			return err
		}
		bw.physOff += tableEntrySize
	}
	var foot [compressFooter]byte
	binary.BigEndian.PutUint64(foot[0:8], uint64(tableOff))
	binary.BigEndian.PutUint64(foot[8:16], uint64(len(bw.entries)))
	binary.BigEndian.PutUint64(foot[16:24], uint64(bw.logical))
	copy(foot[24:32], compressEndMagic)
	if _, err := bw.w.Write(foot[:]); err != nil {
		bw.err = err
		return err
	}
	bw.physOff += compressFooter
	// Odd-size guard: pre-v3 readers check size % NodeSize and reject.
	if bw.physOff%NodeSize == 0 {
		if err := bw.w.WriteByte(0); err != nil {
			bw.err = err
			return err
		}
		bw.physOff++
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = err
		return err
	}
	return nil
}

// CompressInPlace rewrites base.arb as an LZ container (blockSize 0
// for the default), committed through WriteFile; codec must be CodecLZ. A
// database that is already compressed is first served raw through its own
// reader, so recompressing with a different block size works too. The .idx
// sidecar stays as it is: compression moves no node. Returns the container
// summary.
func CompressInPlace(base string, codec uint8, blockSize int) (ContainerInfo, error) {
	var zero ContainerInfo
	if codec != CodecLZ {
		return zero, fmt.Errorf("storage: cannot compress %s with codec %s, only lz", base, CodecName(codec))
	}
	db, err := Open(base)
	if err != nil {
		return zero, err
	}
	defer db.Close()
	err = WriteFile(base+".arb", func(f *os.File) error {
		bw, err := NewBlockWriter(f, blockSize)
		if err != nil {
			return err
		}
		if _, err := io.Copy(bw, io.NewSectionReader(db.arb, 0, db.N*NodeSize)); err != nil {
			return err
		}
		return bw.Close()
	})
	if err != nil {
		return zero, err
	}
	zdb, err := Open(base)
	if err != nil {
		return zero, fmt.Errorf("storage: reopening freshly compressed %s: %w", base, err)
	}
	defer zdb.Close()
	info, _ := zdb.Compression()
	return info, nil
}
