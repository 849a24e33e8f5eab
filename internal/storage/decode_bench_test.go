package storage_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/workload"
)

// treebankContainer builds a Treebank-shaped database of ~0.5 M nodes,
// compresses it into 16 KB LZ blocks (the benchmark harness's geometry)
// and opens its logical record space.
func treebankContainer(b *testing.B) (io.ReaderAt, storage.ContainerInfo) {
	b.Helper()
	base := filepath.Join(b.TempDir(), "tb")
	db, _, err := workload.CreateTreebankDB(base, workload.TreebankConfig{Seed: 1, Sentences: 1600})
	if err != nil {
		b.Fatal(err)
	}
	db.Close()
	if _, err := storage.CompressInPlace(base, storage.CodecLZ, 16<<10); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(base + ".arb")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	st, err := f.Stat()
	if err != nil {
		b.Fatal(err)
	}
	src, info, ok, err := storage.OpenContainer(f, st.Size())
	if err != nil || !ok {
		b.Fatalf("open container: ok=%v err=%v", ok, err)
	}
	return src, info
}

// BenchmarkLZDecode reads every block of the container whole, in order,
// so each read evicts the block 32 before it and decodes (MB/s of
// logical bytes).
func BenchmarkLZDecode(b *testing.B) {
	src, info := treebankContainer(b)
	if info.Blocks <= 32 {
		b.Fatalf("%d blocks fit the 32-slot cache", info.Blocks)
	}
	buf := make([]byte, info.BlockSize)
	b.SetBytes(info.LogicalBytes)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for off := int64(0); off < info.LogicalBytes; off += int64(info.BlockSize) {
			if _, err := src.ReadAt(buf, off); err != nil && err != io.EOF {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBlockSourceSparseRead reads one 2-byte record every ~22 KB,
// the pattern of the glue records a pruned scan reads between skipped
// extents; the start shifts by a few records each pass so reads land
// at every offset of their blocks.
func BenchmarkBlockSourceSparseRead(b *testing.B) {
	src, info := treebankContainer(b)
	const stride = 22 << 10
	var rec [storage.NodeSize]byte
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		phase := int64(n*7*storage.NodeSize) % stride
		for off := phase; off < info.LogicalBytes; off += stride {
			if _, err := src.ReadAt(rec[:], off); err != nil {
				b.Fatal(err)
			}
		}
	}
}
