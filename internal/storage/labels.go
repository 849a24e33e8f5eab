package storage

// LabelSig is a compact, conservative summary of a set of node labels —
// the per-extent "which labels occur below here" bitmap of the v2 subtree
// index, and the query side's "which labels can matter" set produced by
// the engine's static analysis. Membership is hashed, so the signature
// supports exactly one sound question: IF two signatures are disjoint,
// THEN the underlying label sets are disjoint. (The converse can fail: a
// hash collision may make disjoint sets look overlapping, which costs a
// pruning opportunity but never an answer.)
//
// Bit layout: bit 0 is the class of character labels (0..255) as a whole
// — text is dense and per-character resolution would saturate a small
// bitmap — and named labels (>= 256) hash onto bits 1..255. A signature
// therefore occupies 32 bytes, small enough to ride along in every index
// entry.
type LabelSig [4]uint64

// labelSigBit maps a label to its bit index.
func labelSigBit(l uint16) uint {
	if l < 256 {
		return 0
	}
	// Fibonacci hashing spreads the (typically small, dense) named-label
	// ids across the 255 named bits.
	h := uint32(l) * 0x9E3779B1
	return 1 + uint(h>>8)%255
}

// Add records label l in the signature.
func (s *LabelSig) Add(l uint16) {
	b := labelSigBit(l)
	s[b/64] |= 1 << (b % 64)
}

// Or folds another signature into s (set union).
func (s *LabelSig) Or(o LabelSig) {
	s[0] |= o[0]
	s[1] |= o[1]
	s[2] |= o[2]
	s[3] |= o[3]
}

// Intersects reports whether the two signatures share a bit. A false
// result proves the underlying label sets are disjoint.
func (s LabelSig) Intersects(o LabelSig) bool {
	return s[0]&o[0]|s[1]&o[1]|s[2]&o[2]|s[3]&o[3] != 0
}

// IsZero reports an empty signature.
func (s LabelSig) IsZero() bool {
	return s[0]|s[1]|s[2]|s[3] == 0
}
