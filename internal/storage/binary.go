package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
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
// subtree, second subtree); structure is validated with a counting stack
// before the database is opened.
func CreateBinary(base string, names *tree.Names, feed func(emit RecordSink) error) (*DB, error) {
	db, _, err := create(base, names, func(arbF *os.File) error {
		w := bufio.NewWriterSize(arbF, defaultBufSize)
		var buf [NodeSize]byte
		var n int64
		// pending counts, per open node, how many of its announced children
		// have not begun yet; preorder validity means the stream is exactly
		// one tree iff pending drains to zero at the end and never before.
		var pending []uint8
		var werr error
		emit := func(label tree.Label, hasFirst, hasSecond bool) error {
			if werr != nil {
				return werr
			}
			if n > 0 && len(pending) == 0 {
				werr = fmt.Errorf("storage: record %d begins a second tree", n)
				return werr
			}
			if err := checkLabel(uint16(label)); err != nil {
				werr = err
				return werr
			}
			k := uint8(0)
			if hasFirst {
				k++
			}
			if hasSecond {
				k++
			}
			if k > 0 {
				pending = append(pending, k)
			} else {
				// A leaf completes its own subtree and possibly, cascading,
				// the subtrees of ancestors whose last child this closes.
				for len(pending) > 0 {
					pending[len(pending)-1]--
					if pending[len(pending)-1] > 0 {
						break
					}
					pending = pending[:len(pending)-1]
				}
			}
			r := Record{Label: uint16(label), HasFirst: hasFirst, HasSecond: hasSecond}
			binary.BigEndian.PutUint16(buf[:], r.Encode())
			if _, err := w.Write(buf[:]); err != nil {
				werr = err
				return werr
			}
			n++
			return nil
		}
		if err := feed(emit); err != nil {
			return err
		}
		switch {
		case werr != nil:
			return werr
		case n == 0:
			return fmt.Errorf("storage: empty binary feed")
		case len(pending) != 0:
			return fmt.Errorf("storage: binary feed ended with %d incomplete nodes", len(pending))
		}
		return w.Flush()
	})
	return db, err
}
