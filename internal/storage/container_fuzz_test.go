package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// refDecodeContainer is the container reader's oracle: the layout of
// compress.go parsed straight from the bytes, and every LZ block decoded
// whole by the byte-at-a-time decoder. It returns the blocks' logical bytes, or for a block that does
// not decode its error instead; err is for a layout that is no container.
func refDecodeContainer(data []byte) (blockSize int64, blocks [][]byte, blockErrs []error, err error) {
	bad := errors.New("not a valid container")
	size := int64(len(data))
	if size < compressHeader+compressFooter || string(data[:8]) != compressMagic || size%NodeSize == 0 {
		return 0, nil, nil, bad
	}
	codec := data[8]
	blockSize = int64(binary.BigEndian.Uint32(data[12:16]))
	if codec != CodecLZ || blockSize < minBlockSize || blockSize > maxBlockSize {
		return 0, nil, nil, bad
	}
	footOff := size - compressFooter // behind the pad byte, if any
	if string(data[footOff+24:]) != compressEndMagic {
		footOff--
	}
	foot := data[footOff : footOff+compressFooter]
	if string(foot[24:]) != compressEndMagic {
		return 0, nil, nil, bad
	}
	tableOff, n, logical := binary.BigEndian.Uint64(foot), binary.BigEndian.Uint64(foot[8:]), binary.BigEndian.Uint64(foot[16:])
	if logical%NodeSize != 0 || logical > 1<<40 || n != (logical+uint64(blockSize)-1)/uint64(blockSize) ||
		tableOff < compressHeader || tableOff > uint64(footOff) || uint64(footOff)-tableOff != n*tableEntrySize {
		return 0, nil, nil, bad
	}
	phys := int64(compressHeader)
	for i := uint64(0); i < n; i++ {
		ent := data[tableOff+i*tableEntrySize:]
		ln := int64(binary.BigEndian.Uint32(ent))
		want := min(uint64(blockSize), logical-i*uint64(blockSize))
		if phys+ln > int64(tableOff) || want > uint64(ln)*maxDecodeRatio || (ent[4] != 0 && ent[4] != codec) || (ent[4] == 0 && uint64(ln) != want) {
			return 0, nil, nil, fmt.Errorf("block %d: %d stored bytes, encoding %d, impossible", i, ln, ent[4])
		}
		stored := data[phys : phys+ln]
		phys += ln
		block := make([]byte, want)
		var err error
		switch ent[4] {
		case 0:
			copy(block, stored)
		case CodecLZ:
			err = lzDecompressRef(block, stored)
		}
		if err != nil {
			block = nil
		}
		blocks, blockErrs = append(blocks, block), append(blockErrs, err)
	}
	if phys != int64(tableOff) {
		return 0, nil, nil, bad
	}
	return blockSize, blocks, blockErrs, nil
}

// containerSeed is a record stream of n nodes shaped like a database's —
// runs of repeated records, a small label alphabet — stored as a plain
// record stream (codec CodecRaw) or as an LZ container (CodecLZ).
func containerSeed(t testing.TB, n int, codec uint8, blockSize int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	recs := make([]byte, 0, n*NodeSize)
	for len(recs) < n*NodeSize {
		rec := uint16(rng.Intn(12))<<2 | uint16(rng.Intn(4))
		for run := 1 + rng.Intn(6); run > 0 && len(recs) < n*NodeSize; run-- {
			recs = binary.BigEndian.AppendUint16(recs, rec)
		}
	}
	if codec == CodecRaw {
		return recs
	}
	var buf bytes.Buffer
	bw, err := NewBlockWriter(&buf, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(recs); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenContainer feeds arbitrary bytes to the container reader as a
// file. Whatever the header, offset table and footer claim, opening must
// not panic or allocate beyond a small multiple of the file's size, and
// every logical byte the reader serves — read back to front in window-sized
// pieces, so blocks are decoded in prefixes and resumed, then front to back
// in one read — must equal the oracle's decode; the reader may instead
// fail with an error. Seeds: a plain record stream, and LZ containers at
// 4 KB and 16 KB blocks.
func FuzzOpenContainer(f *testing.F) {
	f.Add(containerSeed(f, 3000, CodecRaw, 0))
	for _, blockSize := range []int{4 << 10, 16 << 10} {
		f.Add(containerSeed(f, 12000, CodecLZ, blockSize))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, info, ok, err := OpenContainer(bytes.NewReader(data), size)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(4*size)+64<<10 {
			t.Fatalf("opening a %d-byte file allocated %d bytes", size, alloc)
		}
		if !ok {
			if err == nil && size >= compressHeader+compressFooter && string(data[:8]) == compressMagic {
				t.Fatal("a file with the container magic was taken for a plain record stream")
			}
			return
		}
		if err != nil {
			t.Fatalf("ok with error %v", err)
		}
		if info.LogicalBytes > maxDecodeRatio*size {
			t.Fatalf("a %d-byte file serves %d logical bytes", size, info.LogicalBytes)
		}
		blockSize, blocks, blockErrs, refErr := refDecodeContainer(data)
		if refErr != nil {
			t.Fatalf("opened a container the oracle rejects: %v", refErr)
		}
		// check holds bytes served from off to the oracle's decode of
		// every block they come from: a corrupt block fails only the
		// reads that reach it.
		check := func(got []byte, off int64, how string) {
			t.Helper()
			for len(got) > 0 {
				i, rel := off/blockSize, off%blockSize
				if blockErrs[i] != nil {
					t.Fatalf("%s served bytes at %d of block %d, which the oracle cannot decode: %v", how, off, i, blockErrs[i])
				}
				n := min(int64(len(got)), int64(len(blocks[i]))-rel)
				if !bytes.Equal(got[:n], blocks[i][rel:rel+n]) {
					t.Fatalf("%s at %d: bytes differ from the oracle's decode of block %d", how, off, i)
				}
				got, off = got[n:], off+n
			}
		}
		const window = 1000
		for end := info.LogicalBytes; end > 0; end -= window {
			off := max(0, end-window)
			buf := make([]byte, end-off)
			if _, err := src.ReadAt(buf, off); err != nil {
				return
			}
			check(buf, off, "backward read")
		}
		all := make([]byte, info.LogicalBytes)
		if n, err := src.ReadAt(all, 0); err == nil {
			check(all[:n], 0, "forward read")
		}
	})
}
