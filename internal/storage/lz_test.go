package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// lzDecompress fills dst exactly from the compressed stream src: the
// library decoder's whole-block form.
func lzDecompress(dst, src []byte) error {
	_, _, err := lzDecodePrefix(dst, src, 0, len(dst))
	return err
}

// lzDecompressRef is the byte-at-a-time LZ decoder the word-copy decoder
// replaced, kept as the oracle: every stream must fail in both or decode
// to the same bytes in both, with the same error.
func lzDecompressRef(dst, src []byte) error {
	di, si := 0, 0
	for {
		if si >= len(src) {
			return fmt.Errorf("lz block: truncated at sequence start")
		}
		token := src[si]
		si++
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, si, err = lzGetLen(src, si, litLen)
			if err != nil {
				return err
			}
		}
		if si+litLen > len(src) || di+litLen > len(dst) {
			return fmt.Errorf("lz block: literal run of %d overflows", litLen)
		}
		copy(dst[di:], src[si:si+litLen])
		di += litLen
		si += litLen
		if si == len(src) {
			if token&0x0F != 0 {
				return fmt.Errorf("lz block: stream ends inside a match sequence")
			}
			if di != len(dst) {
				return fmt.Errorf("lz block: produced %d of %d bytes", di, len(dst))
			}
			return nil
		}
		mlen := int(token & 0x0F)
		if mlen == 15 {
			var err error
			mlen, si, err = lzGetLen(src, si, mlen)
			if err != nil {
				return err
			}
		}
		mlen += lzMinMatch
		if si+2 > len(src) {
			return fmt.Errorf("lz block: truncated match offset")
		}
		off := int(src[si])<<8 | int(src[si+1])
		si += 2
		if off == 0 || off > di {
			return fmt.Errorf("lz block: match offset %d at output position %d", off, di)
		}
		if di+mlen > len(dst) {
			return fmt.Errorf("lz block: match of %d overflows output", mlen)
		}
		if off >= mlen {
			copy(dst[di:di+mlen], dst[di-off:])
			di += mlen
		} else {
			start := di - off
			di += mlen
			have := off
			for start+have < di {
				n := copy(dst[start+have:di], dst[start:start+have])
				have += n
			}
		}
	}
}

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkLZDecode decodes stream into outLen bytes with the oracle, with
// lzDecompress, and as a prefix up to cut resumed to the end, and fails
// on any disagreement between the three.
func checkLZDecode(t *testing.T, stream []byte, outLen, cut int) {
	t.Helper()
	want := make([]byte, outLen)
	wantErr := errText(lzDecompressRef(want, stream))
	got := make([]byte, outLen)
	if e := errText(lzDecompress(got, stream)); e != wantErr {
		t.Fatalf("lzDecompress error %q, oracle %q", e, wantErr)
	}
	if wantErr == "" && !bytes.Equal(got, want) {
		t.Fatal("lzDecompress output differs from the oracle")
	}
	if outLen == 0 {
		return
	}
	// A prefix decode to cut, then a resume to the end, is one decode.
	res := make([]byte, outLen)
	di, si, err := lzDecodePrefix(res, stream, 0, cut)
	if err == nil {
		if di < cut {
			t.Fatalf("prefix decode to %d stopped at %d", cut, di)
		}
		// Bytes below the prefix are final, even when a later
		// sequence turns out to be corrupt (the oracle has written
		// them before it fails).
		if !bytes.Equal(res[:di], want[:di]) {
			t.Fatalf("prefix [0,%d) differs from the oracle", di)
		}
		if di < outLen {
			var n int
			di, n, err = lzDecodePrefix(res, stream[si:], di, outLen)
			si += n
		}
	}
	if e := errText(err); e != wantErr {
		t.Fatalf("prefix-then-resume error %q, one decode %q", e, wantErr)
	}
	if err == nil && (di != outLen || si != len(stream) || !bytes.Equal(res, want)) {
		t.Fatalf("prefix-then-resume ended at %d/%d (stream %d/%d) or differs", di, outLen, si, len(stream))
	}
}

// TestLZDecodeCopyShapes builds streams whose second sequence is every
// literal run up to 20 bytes and every match of offset 1..24 and length
// 4..40, with and without room after it for word copies, and holds each
// decode to the oracle and to the prefix-then-resume equivalence.
func TestLZDecodeCopyShapes(t *testing.T) {
	lits := make([]byte, 64)
	for i := range lits {
		lits[i] = byte(i*37 + 11)
	}
	const head = 24 // first sequence: 24 literals and a 4-byte match
	for _, tail := range []int{5, 40} {
		for lit := 0; lit <= 20; lit++ {
			for off := 1; off <= 24; off++ {
				for mlen := lzMinMatch; mlen <= 40; mlen++ {
					body, _ := lzEmit(nil, lits[:head], lzMinMatch, head, 1<<20)
					body, _ = lzEmit(body, lits[head:head+lit], mlen, off, 1<<20)
					n := head + lzMinMatch + lit + mlen
					s, _ := lzEmit(append([]byte(nil), body...), lits[:tail], 0, 0, 1<<20)
					checkLZDecode(t, s, n+tail, head+lzMinMatch+1)
					// A match that fills the output must still be
					// followed by a clean end of stream.
					checkLZDecode(t, append(body[:len(body):len(body)], 0x00), n, head+lzMinMatch+1)
					checkLZDecode(t, append(body[:len(body):len(body)], 0x10, 0), n, head+lzMinMatch+1)
				}
			}
		}
	}
}

// FuzzLZDecompress holds the word-copy decoder to the byte-at-a-time
// oracle on arbitrary streams, checks that a prefix decode resumed to
// the end equals one decode, and round-trips what lzCompress makes of
// the input. Seeds in testdata/fuzz: the TestLZRoundTrip shapes, and a
// 16 KB record block of a Treebank-shaped database.
func FuzzLZDecompress(f *testing.F) {
	f.Add([]byte{0x40, 1, 2, 3, 4}, 4, 2)
	f.Fuzz(func(t *testing.T, stream []byte, outLen, cut int) {
		const maxOut = 1 << 17
		outLen = int(uint(outLen) % (maxOut + 1))
		if outLen > 0 {
			cut = 1 + int(uint(cut)%uint(outLen))
		}
		checkLZDecode(t, stream, outLen, cut)
		if comp, ok := lzCompress(nil, stream); ok {
			got := make([]byte, len(stream))
			if err := lzDecompress(got, comp); err != nil || !bytes.Equal(got, stream) {
				t.Fatalf("round trip of %d bytes: %v", len(stream), err)
			}
			checkLZDecode(t, comp, len(stream), 1+int(uint(cut)%uint(len(stream))))
		}
	})
}
