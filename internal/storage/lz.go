package storage

import (
	"encoding/binary"
	"fmt"
)

// A small byte-oriented LZ codec for block compression (CodecLZ).
//
// The format is the classic token + literals + match stream: each
// sequence starts with a token byte whose high nibble is the literal
// count and low nibble the match length minus the 4-byte minimum, both
// extended by 0xFF continuation bytes when they saturate; the literals
// follow, then a big-endian uint16 backward offset. The final sequence
// is literals-only (token low nibble 0, no offset). Matches may overlap
// their own output — an offset of 1 repeats the previous byte — which
// is exactly the shape long runs of identical records compress to.
//
// The encoder is a greedy single-pass hash-table matcher: fast, no
// allocation beyond the table, and good on preorder label streams where
// repetition is long-range and frequent. It gives up (returns ok=false)
// as soon as output would reach the caller's raw-fallback bound, so
// incompressible blocks cost one pass and are stored raw.

const (
	lzMinMatch    = 4
	lzMaxOffset   = 1 << 16
	lzHashLog     = 14
	lzHashShift   = 32 - lzHashLog
	lzHashMul     = 2654435761 // Knuth's 32-bit golden-ratio multiplier
	lzTailLits    = 5          // final literals the encoder must leave unmatched
	lzMaxExtraHdr = 16
)

// lzMaxExpansion bounds how much larger than its logical size a stored
// block may legally be; container parsing uses it to reject corrupt
// block tables before allocating.
func lzMaxExpansion(n int) int64 { return int64(n/255 + lzMaxExtraHdr) }

// lzHash hashes exactly the lzMinMatch bytes a candidate must share:
// hashing a wider window would scatter positions that agree on the
// first four bytes into different slots and miss most short matches —
// fatal on 2-byte record streams, where matches start short and extend.
func lzHash(v uint32) uint32 {
	return (v * lzHashMul) >> lzHashShift
}

// lzCompress appends the compressed form of src to dst, reporting
// ok=false when the result would not be at least ~6% smaller than src
// (the caller then stores the block raw). src must be at most one
// block, well under lzMaxOffset*2^15, and is not retained.
func lzCompress(dst, src []byte) ([]byte, bool) {
	if len(src) < 16 {
		return nil, false
	}
	limit := len(src) - len(src)/16
	var table [1 << lzHashLog]int32 // position+1 of the last occurrence of each hash
	anchor := 0
	pos := 0
	matchEnd := len(src) - lzTailLits  // matches may extend up to here
	searchEnd := matchEnd - lzMinMatch // last position a minimum match fits (4-byte loads stay in bounds)
	for pos < searchEnd {
		v := binary.LittleEndian.Uint32(src[pos:])
		h := lzHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand >= lzMaxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != v {
			pos++
			continue
		}
		// Extend the match forward; the 4 hashed bytes already agree.
		mlen := lzMinMatch
		for pos+mlen < matchEnd && src[cand+mlen] == src[pos+mlen] {
			mlen++
		}
		// Extend backward over pending literals.
		for pos > anchor && cand > 0 && src[cand-1] == src[pos-1] {
			pos--
			cand--
			mlen++
		}
		var ok bool
		dst, ok = lzEmit(dst, src[anchor:pos], mlen, pos-cand, limit)
		if !ok {
			return nil, false
		}
		pos += mlen
		anchor = pos
		if pos >= 2 && pos < searchEnd {
			// Seed the table inside the match so long runs chain.
			table[lzHash(binary.LittleEndian.Uint32(src[pos-2:]))] = int32(pos - 1)
		}
	}
	dst, ok := lzEmit(dst, src[anchor:], 0, 0, limit)
	if !ok {
		return nil, false
	}
	return dst, true
}

// lzEmit appends one sequence (literals plus an optional match) to dst,
// failing once dst would reach limit bytes.
func lzEmit(dst, lits []byte, mlen, off, limit int) ([]byte, bool) {
	need := 1 + len(lits) + len(lits)/255 + 1
	if mlen > 0 {
		need += 2 + (mlen-lzMinMatch)/255 + 1
	}
	if len(dst)+need > limit {
		return nil, false
	}
	litLen := len(lits)
	token := byte(0)
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	m := 0
	if mlen > 0 {
		m = mlen - lzMinMatch
		if m >= 15 {
			token |= 0x0F
		} else {
			token |= byte(m)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lzPutLen(dst, litLen-15)
	}
	dst = append(dst, lits...)
	if mlen > 0 {
		if m >= 15 {
			dst = lzPutLen(dst, m-15)
		}
		dst = append(dst, byte(off>>8), byte(off))
	}
	return dst, true
}

func lzPutLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 0xFF)
		n -= 255
	}
	return append(dst, byte(n))
}

// lzDecodePrefix resumes decoding a block into dst at output position
// di, where src holds the rest of the compressed stream from a sequence
// boundary on. It decodes whole sequences until the output reaches need
// bytes, and returns the output position and the src bytes consumed.
// Once the output is full it decodes on to the end of the stream, so a
// decode that ends at len(dst) has passed every end-of-stream check.
// Every access is bounds-checked so corrupt blocks fail cleanly rather
// than panicking or reading out of range. Bytes of dst at or past the
// returned position are scratch: the word copies below may have written
// there.
//
// Short literal runs and matches whose source lies at least 8 bytes
// back are copied as 8-byte words while dst (and, for literals, src)
// has room for the overshoot. Sequences average 5–10 output bytes on
// Treebank-shaped record streams, too few for two copy() calls per
// sequence to pay for themselves.
func lzDecodePrefix(dst, src []byte, di, need int) (int, int, error) {
	si := 0
	for {
		if si >= len(src) {
			return di, si, fmt.Errorf("lz block: truncated at sequence start")
		}
		token := src[si]
		si++
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, si, err = lzGetLen(src, si, litLen)
			if err != nil {
				return di, si, err
			}
		}
		if si+litLen > len(src) || di+litLen > len(dst) {
			return di, si, fmt.Errorf("lz block: literal run of %d overflows", litLen)
		}
		if litLen <= 16 && len(src)-si >= 16 && len(dst)-di >= 16 {
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(src[si:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(src[si+8:]))
		} else {
			copy(dst[di:], src[si:si+litLen])
		}
		di += litLen
		si += litLen
		if si == len(src) {
			if token&0x0F != 0 {
				return di, si, fmt.Errorf("lz block: stream ends inside a match sequence")
			}
			if di != len(dst) {
				return di, si, fmt.Errorf("lz block: produced %d of %d bytes", di, len(dst))
			}
			return di, si, nil
		}
		mlen := int(token & 0x0F)
		if mlen == 15 {
			var err error
			mlen, si, err = lzGetLen(src, si, mlen)
			if err != nil {
				return di, si, err
			}
		}
		mlen += lzMinMatch
		if si+2 > len(src) {
			return di, si, fmt.Errorf("lz block: truncated match offset")
		}
		off := int(src[si])<<8 | int(src[si+1])
		si += 2
		if off == 0 || off > di {
			return di, si, fmt.Errorf("lz block: match offset %d at output position %d", off, di)
		}
		if di+mlen > len(dst) {
			return di, si, fmt.Errorf("lz block: match of %d overflows output", mlen)
		}
		switch {
		case off >= 8 && len(dst)-di >= mlen+16:
			// Each word's source ends at or before the word it writes,
			// so a match overlapping its output by ≥ 8 bytes is safe.
			s := di - off
			binary.LittleEndian.PutUint64(dst[di:], binary.LittleEndian.Uint64(dst[s:]))
			binary.LittleEndian.PutUint64(dst[di+8:], binary.LittleEndian.Uint64(dst[s+8:]))
			for k := 16; k < mlen; k += 8 {
				binary.LittleEndian.PutUint64(dst[di+k:], binary.LittleEndian.Uint64(dst[s+k:]))
			}
		case off >= mlen:
			copy(dst[di:di+mlen], dst[di-off:])
		default:
			// Overlapping match: widen the copy stride by doubling so
			// run-heavy data is still copied in large chunks. The valid
			// prefix [start, start+have) grows until it covers the match
			// end at di+mlen.
			start, have := di-off, off
			for start+have < di+mlen {
				have += copy(dst[start+have:di+mlen], dst[start:start+have])
			}
		}
		di += mlen
		if di >= need && di < len(dst) {
			return di, si, nil
		}
	}
}

func lzGetLen(src []byte, si, base int) (int, int, error) {
	n := base
	for {
		if si >= len(src) {
			return 0, 0, fmt.Errorf("lz block: truncated length extension")
		}
		c := src[si]
		si++
		n += int(c)
		if c != 0xFF {
			return n, si, nil
		}
	}
}
