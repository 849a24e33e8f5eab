package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"arb/internal/testutil"
	"arb/internal/tree"
)

// sizedTree draws random trees until one has at least minNodes nodes,
// so the container tests always see multiple blocks.
func sizedTree(t *testing.T, rng *rand.Rand, minNodes, maxNodes int) *tree.Tree {
	t.Helper()
	for i := 0; i < 1000; i++ {
		tr := testutil.RandomTree(rng, maxNodes)
		if tr.Len() >= minNodes {
			return tr
		}
	}
	t.Fatalf("no random tree with >= %d nodes in 1000 draws", minNodes)
	return nil
}

// lzRoundTrip compresses src and decompresses the result, failing the
// test on any mismatch. Returns false when the encoder declined
// (incompressible input), which is a legal outcome, not a failure.
func lzRoundTrip(t *testing.T, src []byte) bool {
	t.Helper()
	comp, ok := lzCompress(nil, src)
	if !ok {
		return false
	}
	if len(comp) >= len(src) {
		t.Fatalf("lzCompress accepted but did not shrink: %d -> %d", len(src), len(comp))
	}
	got := make([]byte, len(src))
	if err := lzDecompress(got, comp); err != nil {
		t.Fatalf("lzDecompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("lz round trip mismatch on %d bytes", len(src))
	}
	return true
}

func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Long runs: the overlap-copy path.
	if !lzRoundTrip(t, bytes.Repeat([]byte{0x80, 0x01}, 50000)) {
		t.Fatal("run-heavy input should compress")
	}
	// Repetitive record stream: a few distinct records shuffled in
	// bursts, the realistic label-stream shape.
	var burst []byte
	recs := [][]byte{{0xC0, 0x01}, {0x80, 0x02}, {0x40, 0x03}, {0x00, 0x04}}
	for i := 0; i < 30000; i++ {
		r := recs[rng.Intn(len(recs))]
		for j := 0; j < 1+rng.Intn(6); j++ {
			burst = append(burst, r...)
		}
	}
	if !lzRoundTrip(t, burst) {
		t.Fatal("bursty record stream should compress")
	}
	// Random bytes: must be declined, not corrupted.
	rnd := make([]byte, 4096)
	rng.Read(rnd)
	if lzRoundTrip(t, rnd) {
		t.Log("random block compressed (allowed, just unexpected)")
	}
	// Tiny inputs: always declined.
	if ok := lzRoundTrip(t, []byte{1, 2, 3}); ok {
		t.Fatal("3-byte input cannot compress")
	}
	// Mixed compressible/incompressible halves.
	mixed := append(bytes.Repeat([]byte("ab"), 8192), rnd...)
	lzRoundTrip(t, mixed)
}

func TestLZDecompressRejectsCorruptStreams(t *testing.T) {
	src := bytes.Repeat([]byte{0xAA, 0x01}, 4096)
	comp, ok := lzCompress(nil, src)
	if !ok {
		t.Fatal("setup: run input should compress")
	}
	dst := make([]byte, len(src))
	for i := range comp {
		for _, b := range []byte{0x00, 0xFF, comp[i] ^ 0x10} {
			mut := append([]byte(nil), comp...)
			if mut[i] == b {
				continue
			}
			mut[i] = b
			// Must either error or produce output — never panic or
			// read/write out of bounds (the race detector and bounds
			// checks enforce the rest).
			_ = lzDecompress(dst, mut)
		}
	}
	for cut := 0; cut < len(comp); cut += 7 {
		if err := lzDecompress(dst, comp[:cut]); err == nil && cut < len(comp)-1 {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(comp))
		}
	}
}

// compressCopy compresses the database at base in place and returns the
// summary.
func compressCopy(t *testing.T, base string, blockSize int) ContainerInfo {
	t.Helper()
	info, err := CompressInPlace(base, CodecLZ, blockSize)
	if err != nil {
		t.Fatalf("CompressInPlace: %v", err)
	}
	return info
}

// TestCompressedContainerRoundTrip compresses random-tree databases
// at a small block size and checks byte-identical
// reads through every access pattern the scans use.
func TestCompressedContainerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 4; iter++ {
		tr := sizedTree(t, rng, 2000, 9000)
		dir := t.TempDir()
		base := filepath.Join(dir, "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, db.N*NodeSize)
		if _, err := db.arb.ReadAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		db.Close()

		info := compressCopy(t, base, minBlockSize)
		if info.LogicalBytes != int64(len(raw)) {
			t.Fatalf("container logical %d, want %d", info.LogicalBytes, len(raw))
		}
		cdb, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		ci, ok := cdb.Compression()
		if !ok || ci.Codec != CodecLZ {
			t.Fatalf("reopened DB compression = %+v, %v", ci, ok)
		}
		if cdb.N != int64(len(raw))/NodeSize {
			t.Fatalf("compressed N %d, want %d", cdb.N, len(raw)/NodeSize)
		}
		// Whole-file read.
		got := make([]byte, len(raw))
		if _, err := cdb.arb.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("iter %d: whole-file read differs", iter)
		}
		// Random sub-range reads, including block-straddling ones.
		for k := 0; k < 200; k++ {
			off := rng.Int63n(int64(len(raw)))
			n := rng.Int63n(int64(len(raw)) - off)
			if n > 3*minBlockSize {
				n = 3 * minBlockSize
			}
			buf := make([]byte, n)
			if _, err := cdb.arb.ReadAt(buf, off); err != nil {
				t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
			}
			if !bytes.Equal(buf, raw[off:off+n]) {
				t.Fatalf("iter %d: range [%d,%d) differs", iter, off, off+n)
			}
		}
		// Reads past EOF behave like a section of the logical space.
		tail := make([]byte, 16)
		if n, err := cdb.arb.ReadAt(tail, int64(len(raw))-4); n != 4 || err == nil {
			t.Fatalf("tail read returned n=%d err=%v, want 4, EOF", n, err)
		}
		cdb.Close()
	}
}

// TestCompressedScansBitIdentical folds and scans a compressed database
// and checks stats and results against the raw original, including the
// physical-bytes accounting invariants.
func TestCompressedScansBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tr := sizedTree(t, rng, 6000, 20000)
	dir := t.TempDir()
	rawBase := filepath.Join(dir, "raw")
	compBase := filepath.Join(dir, "comp")
	rawDB, err := CreateFromTree(rawBase, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rawDB.Close()
	if _, err := CreateFromTree(compBase, tr); err != nil {
		t.Fatal(err)
	}
	info := compressCopy(t, compBase, minBlockSize)
	compDB, err := Open(compBase)
	if err != nil {
		t.Fatal(err)
	}
	defer compDB.Close()

	type scanResult struct {
		sig   uint64
		stats ScanStats
	}
	fold := func(db *DB) scanResult {
		sig, st, err := FoldBottomUp(context.Background(), db, func(first, second *uint64, rec Record, v int64) uint64 {
			h := uint64(rec.Label)*0x9E3779B185EBCA87 + uint64(v)
			if first != nil {
				h ^= *first * 3
			}
			if second != nil {
				h ^= *second * 7
			}
			return h
		})
		if err != nil {
			t.Fatal(err)
		}
		return scanResult{sig: sig, stats: st}
	}
	scan := func(db *DB) scanResult {
		var sig uint64
		st, err := ScanTopDown(context.Background(), db, func(v int64, rec Record, parent *uint64, k int) (uint64, error) {
			h := uint64(rec.Label)*0xFF51AFD7ED558CCD + uint64(v) + uint64(k)
			if parent != nil {
				h ^= *parent
			}
			sig ^= h
			return h, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return scanResult{sig: sig, stats: st}
	}

	rf, cf := fold(rawDB), fold(compDB)
	rs, cs := scan(rawDB), scan(compDB)
	if rf.sig != cf.sig || rs.sig != cs.sig {
		t.Fatal("compressed scans produced different results than raw")
	}
	// Logical counters identical in every field but PhysicalBytes.
	for _, p := range []struct{ raw, comp ScanStats }{{rf.stats, cf.stats}, {rs.stats, cs.stats}} {
		if p.raw.Nodes != p.comp.Nodes || p.raw.Bytes != p.comp.Bytes ||
			p.raw.SkippedBytes != p.comp.SkippedBytes || p.raw.MaxStack != p.comp.MaxStack {
			t.Fatalf("logical stats diverged: raw %+v comp %+v", p.raw, p.comp)
		}
	}
	// Raw databases: physical == logical. Compressed full scans: the
	// payload, which must be smaller.
	if rf.stats.PhysicalBytes != rf.stats.Bytes || rs.stats.PhysicalBytes != rs.stats.Bytes {
		t.Fatalf("raw physical bytes %d/%d, want %d", rf.stats.PhysicalBytes, rs.stats.PhysicalBytes, rf.stats.Bytes)
	}
	if cf.stats.PhysicalBytes != info.PayloadBytes || cs.stats.PhysicalBytes != info.PayloadBytes {
		t.Fatalf("compressed full-scan physical bytes %d/%d, want payload %d",
			cf.stats.PhysicalBytes, cs.stats.PhysicalBytes, info.PayloadBytes)
	}
	if info.PayloadBytes >= info.LogicalBytes {
		t.Fatalf("payload %d not smaller than logical %d on a label stream", info.PayloadBytes, info.LogicalBytes)
	}
	// PhysSpan: sums over a block-aligned partition cover the payload.
	blockNodes := int64(info.BlockSize) / NodeSize
	var sum int64
	for lo := int64(0); lo < compDB.N; lo += blockNodes {
		hi := lo + blockNodes
		if hi > compDB.N {
			hi = compDB.N
		}
		sum += compDB.PhysSpan(lo, hi)
	}
	if sum != info.PayloadBytes {
		t.Fatalf("block-aligned PhysSpan partition sums to %d, want %d", sum, info.PayloadBytes)
	}
}

// TestCompressedRangeScans exercises the range/skipping primitives on a
// compressed database against the raw one via the subtree index.
func TestCompressedRangeScans(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tr := sizedTree(t, rng, 5000, 15000)
	dir := t.TempDir()
	rawBase, compBase := filepath.Join(dir, "raw"), filepath.Join(dir, "comp")
	rawDB, err := CreateFromTree(rawBase, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rawDB.Close()
	if _, err := CreateFromTree(compBase, tr); err != nil {
		t.Fatal(err)
	}
	compressCopy(t, compBase, minBlockSize)
	compDB, err := Open(compBase)
	if err != nil {
		t.Fatal(err)
	}
	defer compDB.Close()

	ix, err := compDB.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cuts := ix.Cut(compDB.N/7, 16)
	if len(cuts) == 0 {
		t.Skip("tree too small to cut")
	}
	rawSigs := make(map[int64]int64, len(cuts))
	for _, db := range []*DB{rawDB, compDB} {
		for _, x := range cuts {
			sig, _, err := foldRange(context.Background(), db, x.Root, x.End(), func(first, second *int64, rec Record, v int64) int64 {
				s := int64(rec.Label) + v
				if first != nil {
					s += *first
				}
				if second != nil {
					s += *second
				}
				return s
			})
			if err != nil {
				t.Fatalf("extent [%d,%d): %v", x.Root, x.End(), err)
			}
			if db == rawDB {
				rawSigs[x.Root] = sig
			} else if rawSigs[x.Root] != sig {
				t.Fatalf("extent [%d,%d): compressed fold differs", x.Root, x.End())
			}
		}
	}
}

// TestCompressInPlaceKeepsSidecar checks that compression leaves the
// .idx sidecar byte-identical — compression moves no node, so the index
// still describes the database — and that the compressed database loads
// it.
func TestCompressInPlaceKeepsSidecar(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tr := sizedTree(t, rng, 1500, 5000)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	before, err := os.ReadFile(base + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	compressCopy(t, base, 0)
	after, err := os.ReadFile(base + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("CompressInPlace changed the .idx sidecar (%d -> %d bytes)", len(before), len(after))
	}
	assertIndexLoaded(t, base)
}

// TestIndexStaleSidecarsRebuilt checks that retired sidecars are rejected
// and replaced: a v2 file (entries without their roots' labels) and the
// layout an earlier format wrote under the current magic (a container
// descriptor before the v2 body). DB.Index rebuilds the index, rewrites
// the sidecar in the current format, and a later open loads that file.
func TestIndexStaleSidecarsRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	tr := sizedTree(t, rng, 1500, 5000)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	info := compressCopy(t, base, 0)
	cur, err := os.ReadFile(base + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	// The v2 body: the current one with every root word's label bits
	// cleared.
	body := slices.Clone(cur[len(indexMagic):])
	for off := int64(16); off < int64(len(body)); off += indexEntryBytes {
		binary.BigEndian.PutUint64(body[off:], binary.BigEndian.Uint64(body[off:])&(1<<rootShift-1))
	}
	v2 := append([]byte(indexMagicV2), body...)
	// The descriptor layout: codec, block size, physical and logical bytes
	// as uint64 words, then the v2 body.
	desc := []byte(indexMagic)
	for _, w := range []int64{CodecLZ, int64(info.BlockSize), info.PhysBytes, info.LogicalBytes} {
		desc = binary.BigEndian.AppendUint64(desc, uint64(w))
	}
	desc = append(desc, body...)
	for name, stale := range map[string][]byte{"v2": v2, "descriptor": desc} {
		if err := os.WriteFile(base+".idx", stale, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIndexFile(base + ".idx"); err == nil {
			t.Fatalf("ReadIndexFile accepted a %s sidecar", name)
		}
		cdb, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cdb.Index(context.Background(), 0); err != nil {
			t.Fatalf("Index did not rebuild over the %s sidecar: %v", name, err)
		}
		cdb.Close()
		got, err := os.ReadFile(base + ".idx")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("the sidecar rebuilt over the %s one (%d bytes) is not the current file (%d bytes)", name, len(got), len(cur))
		}
		assertIndexLoaded(t, base)
	}
}

// TestContainerRejectsCodec2 checks that a container whose header names
// codec 2 (the retired DEFLATE codec) fails to open, and that
// CompressInPlace compresses with LZ only.
func TestContainerRejectsCodec2(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	tr := sizedTree(t, rng, 500, 3000)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	for _, codec := range []uint8{CodecRaw, 2} {
		if _, err := CompressInPlace(base, codec, 0); err == nil {
			t.Fatalf("CompressInPlace accepted codec %d", codec)
		}
	}
	compressCopy(t, base, 0)
	data, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 2 // the header's codec byte
	if err := os.WriteFile(base+".arb", data, 0o666); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(base); err == nil {
		db.Close()
		t.Fatal("a container naming codec 2 opened")
	}
	if _, _, _, err := OpenContainer(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("OpenContainer accepted a container naming codec 2")
	}
}

// readCounter counts the bytes read through it.
type readCounter struct {
	r io.ReaderAt
	n atomic.Int64
}

func (c *readCounter) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// assertIndexLoaded opens the database at base and fails unless
// DB.Index loads the .idx sidecar: checking it reads the entries' roots,
// fewer bytes than the records hold, and leaves the file in place, where
// a rebuild reads every record and commits a new file.
func assertIndexLoaded(t *testing.T, base string) {
	t.Helper()
	f, err := os.Open(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(base + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	rc := &readCounter{r: f}
	db, err := OpenReaderAt(base, rc, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	opened := rc.n.Load()
	if _, err := db.Index(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(base + ".idx")
	if err != nil {
		t.Fatal(err)
	}
	if read := rc.n.Load() - opened; read >= st.Size() || !os.SameFile(before, after) {
		t.Fatalf("Index read %d of the %d bytes of %s.arb and replaced the sidecar %v: it was rebuilt, not loaded",
			read, st.Size(), base, !os.SameFile(before, after))
	}
}

// TestCompressedRejectsLegacyReader checks the odd-size guard: a
// container file never has a size divisible by NodeSize, so a pre-v3
// reader (simulated by bypassing the sniff) rejects it cleanly.
func TestCompressedRejectsLegacyReader(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tr := sizedTree(t, rng, 500, 3000)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	compressCopy(t, base, 0)
	st, err := os.Stat(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size()%NodeSize == 0 {
		t.Fatalf("container size %d is a multiple of %d: legacy readers would misparse it", st.Size(), NodeSize)
	}
}

// TestCompressedConcurrentReads hammers one compressed handle from many
// goroutines at clashing offsets — the slot cache must stay coherent
// (run under -race in CI).
func TestCompressedConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tr := sizedTree(t, rng, 6000, 20000)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, db.N*NodeSize)
	if _, err := db.arb.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	db.Close()
	compressCopy(t, base, minBlockSize)
	cdb, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, 4096)
			for k := 0; k < 300; k++ {
				off := r.Int63n(int64(len(raw)) - int64(len(buf)))
				if _, err := cdb.arb.ReadAt(buf, off); err != nil {
					errc <- fmt.Errorf("ReadAt(%d): %w", off, err)
					return
				}
				if !bytes.Equal(buf, raw[off:off+int64(len(buf))]) {
					errc <- fmt.Errorf("read at %d differs", off)
					return
				}
			}
			errc <- nil
		}(int64(w) + 71)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
