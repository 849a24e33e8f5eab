package storage

import (
	"bufio"
	"encoding/binary"
	"os"

	"arb/internal/tree"
)

// RecordSink receives binary-tree records in preorder during CreateBinary.
type RecordSink func(label tree.Label, hasFirst, hasSecond bool) error

// CreateBinary writes a database from a preorder stream of binary-tree
// records. Unlike Create, which consumes *document* events and produces
// the first-child/next-sibling encoding, CreateBinary stores the records
// verbatim: the caller supplies an arbitrary binary tree directly. This is
// the creation path for the paper's alternative binary tree model (the
// [8] balanced model behind ACGT-infix), where the .arb first/second
// children are the binary tree's own left/right children.
//
// feed must emit the nodes of one binary tree in preorder (node, first
// subtree, second subtree). create's index fold over the fresh records
// (BuildIndex) rejects any other shape, and a rejected feed leaves no file
// behind.
func CreateBinary(base string, names *tree.Names, feed func(emit RecordSink) error) (*DB, error) {
	db, _, err := create(base, names, func(arbF *os.File) error {
		w := bufio.NewWriterSize(arbF, defaultBufSize)
		var buf [NodeSize]byte
		var werr error
		emit := func(label tree.Label, hasFirst, hasSecond bool) error {
			if werr == nil {
				werr = checkLabel(uint16(label))
			}
			if werr == nil {
				r := Record{Label: uint16(label), HasFirst: hasFirst, HasSecond: hasSecond}
				binary.BigEndian.PutUint16(buf[:], r.Encode())
				_, werr = w.Write(buf[:])
			}
			return werr
		}
		if err := feed(emit); err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
		return w.Flush()
	})
	return db, err
}
