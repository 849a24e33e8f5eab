package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/testutil"
	"arb/internal/tree"
)

// prefixFixture is a 4 KB-block LZ container of a random tree, opened
// as a bare blockSource so tests can see its slots and decode counter.
type prefixFixture struct {
	raw    []byte // the logical record bytes
	stored []byte // the container file
	bs     *blockSource
}

// wideRandomTree grows a random tree of exactly n nodes by a random
// walk of begin, text and end events kept within depth 12: unlike
// testutil.RandomTree, its size does not depend on the draw.
func wideRandomTree(t *testing.T, rng *rand.Rand, n int) *tree.Tree {
	t.Helper()
	b := tree.NewBuilder(nil)
	var err error
	add := func(e error) {
		if err == nil {
			err = e
		}
	}
	add(b.Begin("r"))
	for nodes := 1; nodes < n; {
		switch d := b.Depth(); {
		case d > 1 && (d >= 12 || rng.Intn(3) == 0):
			add(b.End())
		case rng.Intn(4) == 0:
			add(b.Text([]byte{byte('w' + rng.Intn(4))}))
			nodes++
		default:
			add(b.Begin(testutil.Tags[rng.Intn(len(testutil.Tags))]))
			nodes++
		}
	}
	for b.Depth() > 0 {
		add(b.End())
	}
	tr, terr := b.Tree()
	add(terr)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newPrefixFixture(t *testing.T, seed int64) *prefixFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// More than blockCacheSlots blocks, so two blocks share a slot.
	tr := wideRandomTree(t, rng, 40*minBlockSize/NodeSize)
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
	stored, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	fx := &prefixFixture{raw: raw, stored: stored}
	fx.bs = fx.open(t, stored)
	return fx
}

func (fx *prefixFixture) open(t *testing.T, stored []byte) *blockSource {
	t.Helper()
	bs, err := openBlockSource(bytes.NewReader(stored), int64(len(stored)))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// lzBlocks returns the indexes of the container's LZ-encoded blocks.
func (fx *prefixFixture) lzBlocks(t *testing.T) []int64 {
	t.Helper()
	var out []int64
	for i, enc := range fx.bs.enc {
		if enc == CodecLZ {
			out = append(out, int64(i))
		}
	}
	if len(out) < 2 {
		t.Fatalf("only %d of %d blocks are LZ-encoded", len(out), len(fx.bs.enc))
	}
	return out
}

// read reads [off, off+n) through bs and compares it with the raw file.
func (fx *prefixFixture) read(bs *blockSource, off, n int64) error {
	buf := make([]byte, n)
	if _, err := bs.ReadAt(buf, off); err != nil {
		return err
	}
	if !bytes.Equal(buf, fx.raw[off:off+n]) {
		return fmt.Errorf("read [%d,%d) differs from the raw file", off, off+n)
	}
	return nil
}

func (fx *prefixFixture) mustRead(t *testing.T, bs *blockSource, off, n int64) {
	t.Helper()
	if err := fx.read(bs, off, n); err != nil {
		t.Fatal(err)
	}
}

// TestBlockSourcePrefixReads checks the slot cache's resumable prefix
// decoding byte for byte against the raw file: a head read then a tail
// read of the same block, reads walking backward from a block's end,
// two blocks sharing a slot, concurrent readers, and a block whose
// stored tail is corrupt.
func TestBlockSourcePrefixReads(t *testing.T) {
	fx := newPrefixFixture(t, 71)
	blockSize := int64(fx.bs.blockSize)
	lz := fx.lzBlocks(t)

	t.Run("head then tail", func(t *testing.T) {
		bs := fx.open(t, fx.stored)
		i := lz[0]
		start, want := i*blockSize, bs.blockLen(i)
		fx.mustRead(t, bs, start, 2)
		if d := bs.decoded.Load(); d >= want {
			t.Fatalf("a 2-byte read decoded %d bytes of a %d-byte block", d, want)
		}
		fx.mustRead(t, bs, start+2, want-2)
		if d := bs.decoded.Load(); d != want {
			t.Fatalf("head and tail reads decoded %d bytes of a %d-byte block", d, want)
		}
		fx.mustRead(t, bs, start, want) // served from the slot
		if d := bs.decoded.Load(); d != want {
			t.Fatalf("a cached re-read decoded again: %d bytes", d)
		}
	})

	t.Run("backward walk", func(t *testing.T) {
		bs := fx.open(t, fx.stored)
		i := lz[len(lz)/2]
		start, want := i*blockSize, bs.blockLen(i)
		for rel := want - 2; rel >= 0; rel -= 2 {
			fx.mustRead(t, bs, start+rel, 2)
		}
		if d := bs.decoded.Load(); d != want {
			t.Fatalf("a backward walk decoded %d bytes of a %d-byte block", d, want)
		}
	})

	t.Run("shared slot", func(t *testing.T) {
		bs := fx.open(t, fx.stored)
		i := lz[0]
		j := i + blockCacheSlots
		if j >= int64(len(bs.enc)) {
			t.Fatalf("container has %d blocks, need %d", len(bs.enc), j+1)
		}
		rng := rand.New(rand.NewSource(73))
		for k := 0; k < 400; k++ {
			b := i
			if k%2 == 1 {
				b = j
			}
			want := bs.blockLen(b)
			rel := rng.Int63n(want)
			n := 1 + rng.Int63n(min(want-rel, 64))
			fx.mustRead(t, bs, b*blockSize+rel, n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		bs := fx.open(t, fx.stored)
		const workers = 8
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(seed int64) {
				r := rand.New(rand.NewSource(seed))
				for k := 0; k < 500; k++ {
					off := r.Int63n(int64(len(fx.raw)) - 1)
					n := 1 + r.Int63n(min(int64(len(fx.raw))-off, 3*blockSize/2))
					if err := fx.read(bs, off, n); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}(int64(w) + 79)
		}
		for w := 0; w < workers; w++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("corrupt tail", func(t *testing.T) {
		i := lz[0]
		start := i * blockSize
		stream := fx.stored[fx.bs.offs[i]:fx.bs.offs[i+1]]
		// Find the final sequence: step one sequence at a time until a
		// step ends the stream.
		dst := make([]byte, fx.bs.blockLen(i))
		di, si := 0, 0
		for {
			ndi, n, err := lzDecodePrefix(dst, stream[si:], di, di+1)
			if err != nil {
				t.Fatal(err)
			}
			if ndi == len(dst) {
				break
			}
			di, si = ndi, si+n
		}
		// Its token and literals become 0xFF: a length extension that
		// runs off the end of the stream.
		bad := append([]byte(nil), fx.stored...)
		for k := fx.bs.offs[i] + int64(si); k < fx.bs.offs[i+1]; k++ {
			bad[k] = 0xFF
		}
		bs := fx.open(t, bad)
		fault := int64(di) // first logical byte the bad sequence decodes
		fx.mustRead(t, bs, start, 2)
		fx.mustRead(t, bs, start+fault-2, 2)
		if err := fx.read(bs, start+fault-2, 3); err == nil {
			t.Fatal("a read reaching the corrupt sequence succeeded")
		}
		s := &bs.slots[i%blockCacheSlots]
		s.mu.Lock()
		idx := s.idx
		s.mu.Unlock()
		if idx != -1 {
			t.Fatalf("the slot still claims block %d after a failed decode", idx)
		}
		before := bs.decoded.Load()
		fx.mustRead(t, bs, start, 2)
		if bs.decoded.Load() == before {
			t.Fatal("a read after the failure was served without decoding again")
		}
		if err := fx.read(bs, start+fault, 1); err == nil {
			t.Fatal("a second read of the corrupt sequence succeeded")
		}
	})
}

// TestBlockSourceReadsDoNotAllocate: once the scratch pool and the slot
// buffers are warm, neither a cached read nor the decode of an evicted
// block allocates.
func TestBlockSourceReadsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	fx := newPrefixFixture(t, 83)
	lz := fx.lzBlocks(t)
	i := lz[0]
	j := i + blockCacheSlots
	bs := fx.open(t, fx.stored)
	blockSize := int64(bs.blockSize)
	buf := make([]byte, bs.blockLen(i))
	read := func(b int64) {
		if _, err := bs.ReadAt(buf[:bs.blockLen(b)], b*blockSize); err != nil {
			t.Fatal(err)
		}
	}
	read(i)
	read(j)
	if a := testing.AllocsPerRun(100, func() { read(j) }); a != 0 {
		t.Errorf("a cached read allocates %.0f times", a)
	}
	before := bs.decoded.Load()
	if a := testing.AllocsPerRun(100, func() { read(i); read(j) }); a != 0 {
		t.Errorf("decoding evicted blocks allocates %.0f times", a)
	}
	if bs.decoded.Load() == before {
		t.Fatal("the eviction loop decoded nothing")
	}
}
