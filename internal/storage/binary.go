package storage

import (
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
// subtree, second subtree). The sink checks that shape as the records
// arrive, by the rule XMLEmitter applies: it counts the subtrees announced
// but not begun — one, the root's, at the start; each record takes one and
// announces one per child flag — which must stay positive until the last
// record and be zero after it. So a feed of any other shape fails before
// base.arb is committed, and a database already at base stays as it was.
func CreateBinary(base string, names *tree.Names, feed func(emit RecordSink) error) (*DB, error) {
	db, _, err := create(base, names, func(arbF *os.File) error {
		w := newArbWriter(arbF)
		owed := int64(1)
		emit := func(label tree.Label, hasFirst, hasSecond bool) error {
			if w.err == nil {
				w.err = checkLabel(uint16(label))
			}
			if w.err == nil && owed == 0 {
				w.err = fmt.Errorf("%w: record %d follows the root's subtree", ErrMalformed, w.n)
			}
			if w.err != nil {
				return w.err
			}
			owed--
			if hasFirst {
				owed++
			}
			if hasSecond {
				owed++
			}
			w.add(Record{Label: uint16(label), HasFirst: hasFirst, HasSecond: hasSecond}.Encode())
			return w.err
		}
		err := feed(emit)
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err == nil && owed != 0 {
			err = fmt.Errorf("%w: %d announced subtrees missing at the end of the feed", ErrMalformed, owed)
		}
		return err
	})
	return db, err
}
