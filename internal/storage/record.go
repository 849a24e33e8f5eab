// Package storage implements the Arb storage model of Section 5 of the
// paper: binary trees stored on disk as fixed-size records in preorder,
// supporting top-down traversal by one forward linear scan and bottom-up
// traversal by one backward linear scan, each with a main-memory stack
// bounded by the depth of the XML document (Proposition 5.1).
//
// A database consists of:
//
//	base.arb — one 2-byte big-endian record per node in preorder; the two
//	           highest bits say whether the node has a first and/or second
//	           child, the remaining 14 bits hold the label index.
//	base.lab — whitespace-separated names of the named labels; the name of
//	           label index i >= 256 is the (i-255)th entry. Indices 0..255
//	           are reserved for text characters.
//
// Databases are created in one forward pass: as a SAX-style parser's
// events arrive, each node's record is written in preorder, which is
// document order, and a flag that only a later event decides is set in
// place; the stack this takes is proportional to the document depth
// (Create).
package storage

import "fmt"

// NodeSize is the fixed per-node record size in bytes (k = 2 in the
// paper's implementation, giving 2^14 = 16,384 distinct labels).
const NodeSize = 2

// Bits of the on-disk record. The window kernels test FlagFirst and
// FlagSecond on raw records without decoding them.
const (
	FlagFirst  = 0x8000 // highest bit: node has a first child
	FlagSecond = 0x4000 // second-highest bit: node has a second child
	labelMask  = 0x3FFF
)

// Record is one decoded .arb node record.
type Record struct {
	Label     uint16
	HasFirst  bool
	HasSecond bool
}

// Encode packs the record into its on-disk 2-byte form.
func (r Record) Encode() uint16 {
	v := r.Label & labelMask
	if r.HasFirst {
		v |= FlagFirst
	}
	if r.HasSecond {
		v |= FlagSecond
	}
	return v
}

// DecodeRecord unpacks a 2-byte on-disk value.
func DecodeRecord(v uint16) Record {
	return Record{
		Label:     v & labelMask,
		HasFirst:  v&FlagFirst != 0,
		HasSecond: v&FlagSecond != 0,
	}
}

func checkLabel(l uint16) error {
	if l > labelMask {
		return fmt.Errorf("storage: label %d out of range (max %d)", l, labelMask)
	}
	return nil
}
