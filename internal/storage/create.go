package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"arb/internal/tree"
)

// CreateStats reports the statistics of a database creation run — the
// columns of Figure 5 of the paper but the temporary event file's size:
// creation writes no event file.
type CreateStats struct {
	ElemNodes int64         // (1) element nodes inserted
	CharNodes int64         // (2) character nodes inserted
	Tags      int           // (3) distinct tags (not counting characters)
	Duration  time.Duration // (4) overall creation time
	ArbBytes  int64         // (5) .arb file size
	LabBytes  int64         // (6) .lab file size
}

// arbWriter writes .arb records in preorder through one buffer of
// defaultBufSize bytes. A record's child flags may be set after it was
// written (set): in the buffer while the record is still there, by one
// 2-byte WriteAt once it has been flushed.
type arbWriter struct {
	f   *os.File
	buf []byte // the records from node off/NodeSize on; cap defaultBufSize
	off int64  // file offset of buf[0]
	n   int64  // records written
	// err is the first error, a write's or one its user found in the
	// feed; once it is set, nothing more is written.
	err error
}

func newArbWriter(f *os.File) *arbWriter {
	return &arbWriter{f: f, buf: scanBufPool.Get().([]byte)[:0]}
}

// add writes the next record. It flushes before it writes, never after,
// so the record written last is always in the buffer.
func (w *arbWriter) add(rec uint16) {
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, rec)
	w.n++
}

// set rewrites record v, written earlier, as rec.
func (w *arbWriter) set(v int64, rec uint16) {
	if i := v*NodeSize - w.off; i >= 0 {
		binary.BigEndian.PutUint16(w.buf[i:], rec)
		return
	}
	var buf [NodeSize]byte
	binary.BigEndian.PutUint16(buf[:], rec)
	if w.err == nil {
		_, w.err = w.f.WriteAt(buf[:], v*NodeSize)
	}
}

func (w *arbWriter) flush() {
	if w.err == nil {
		_, w.err = w.f.Write(w.buf)
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
}

// close flushes the records and returns the buffer to the pool.
func (w *arbWriter) close() error {
	w.flush()
	scanBufPool.Put(w.buf[:cap(w.buf)])
	w.buf = nil
	return w.err
}

// EventWriter is the sink of database creation: it interns tag names,
// counts nodes, and writes each node's record to the .arb file as its
// begin event arrives, in preorder — document order — with the
// discipline of tree.Builder. A record's flags are decided later: its
// has-first flag by its first child's record, which follows it directly,
// its has-second flag by its next sibling's, which may follow it a
// subtree later. So the writer keeps a frame per open element, holding
// its last child's record — with the open element itself, written last,
// at most depth + 1 undecided records, the memory bound of Proposition
// 5.1.
type EventWriter struct {
	w     *arbWriter
	names *tree.Names
	stack []openElem
	stats CreateStats
}

// openElem is the frame of an open element: its last child's record, and
// what that record holds so far (last < 0 before the first child).
type openElem struct {
	last    int64
	lastRec uint16
}

// node writes a record labelled l as the next child of the innermost open
// element, setting the has-first flag of that element's record or the
// has-second flag of its previous child's.
func (e *EventWriter) node(l uint16) {
	if len(e.stack) > 0 {
		top := &e.stack[len(e.stack)-1]
		if top.last < 0 {
			// The open element's record is the one written last: set
			// its flag in the buffer, and in its value its parent's
			// frame keeps.
			e.w.buf[len(e.w.buf)-NodeSize] |= FlagFirst >> 8
			if len(e.stack) > 1 {
				e.stack[len(e.stack)-2].lastRec |= FlagFirst
			}
		} else {
			top.lastRec |= FlagSecond
			e.w.set(top.last, top.lastRec)
		}
		top.last, top.lastRec = e.w.n, l
	}
	e.w.add(l)
}

// Begin opens an element with the given tag.
func (e *EventWriter) Begin(name string) error {
	if e.w.err != nil {
		return e.w.err
	}
	if len(e.stack) == 0 && e.w.n > 0 {
		e.w.err = tree.ErrContentAfterRoot
		return e.w.err
	}
	l, err := e.names.Intern(name)
	if err != nil {
		e.w.err = err
		return err
	}
	e.stats.ElemNodes++
	e.node(uint16(l))
	e.stack = append(e.stack, openElem{last: -1})
	return e.w.err
}

// Text adds the bytes of s as character nodes, leaves of the innermost
// open element.
func (e *EventWriter) Text(s []byte) error {
	if e.w.err != nil {
		return e.w.err
	}
	if len(e.stack) == 0 && len(s) > 0 {
		e.w.err = fmt.Errorf("storage: text outside document root")
		return e.w.err
	}
	for _, c := range s {
		e.node(uint16(c))
	}
	e.stats.CharNodes += int64(len(s))
	return e.w.err
}

// End closes the innermost open element.
func (e *EventWriter) End() error {
	if e.w.err != nil {
		return e.w.err
	}
	if len(e.stack) == 0 {
		e.w.err = fmt.Errorf("storage: unbalanced end event")
		return e.w.err
	}
	e.stack = e.stack[:len(e.stack)-1]
	return nil
}

// CreateOpts configures database creation. It has no options.
type CreateOpts struct{}

// Create builds a database under the given base path (producing base.arb,
// base.lab and base.idx) from the document events that feed emits, in one
// forward pass: the EventWriter feed is handed writes each node's record
// into the .arb file's commit temporary as the node begins, with memory
// proportional to the document depth (not to the potentially enormous
// sibling counts), and creation makes no other file. A feed that fails or
// emits anything but one well-formed document fails before base.arb is
// committed, so a database already at base stays as it was. Creating over
// a patched database replaces it whole: its versioned store goes too.
func Create(base string, feed func(*EventWriter) error, _ CreateOpts) (*DB, *CreateStats, error) {
	start := time.Now()
	ew := &EventWriter{names: tree.NewNames()}
	db, labBytes, err := create(base, ew.names, func(arbF *os.File) error {
		ew.w = newArbWriter(arbF)
		err := feed(ew)
		if cerr := ew.w.close(); err == nil {
			err = cerr
		}
		switch {
		case err != nil:
			return err
		case len(ew.stack) != 0:
			return fmt.Errorf("storage: %d unclosed elements", len(ew.stack))
		case ew.w.n == 0:
			return fmt.Errorf("storage: empty document")
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	st := ew.stats
	st.ArbBytes = ew.w.n * NodeSize
	st.LabBytes = labBytes
	st.Tags = ew.names.Len()
	st.Duration = time.Since(start)
	return db, &st, nil
}

// create is the tail every creation path shares: write fills base.arb's
// commit temporary, failing on a feed that is not one binary tree in
// preorder; then create writes names to base.lab, opens the database and
// persists its subtree chunk index as base.idx (one backward pass over the
// fresh, cached .arb), so parallel evaluation never needs an extra scan.
// Each file is committed through WriteFile, so it is durable before the
// next one is written. It returns the .lab size. A failure before
// base.arb's commit leaves base as it was; one after it removes base's
// .arb, .lab and .idx, so no file outlives the records it describes. A
// versioned store over base goes (removeVersioned) once write succeeded,
// before base.arb's commit: it describes the records being replaced.
func create(base string, names *tree.Names, write func(arbF *os.File) error) (db *DB, labBytes int64, err error) {
	arbPath, labPath, idxPath := base+".arb", base+".lab", base+".idx"
	if err := WriteFile(arbPath, func(f *os.File) error {
		if err := write(f); err != nil {
			return err
		}
		return removeVersioned(base)
	}); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			os.Remove(arbPath)
			os.Remove(labPath)
			os.Remove(idxPath)
		}
	}()
	if err = WriteFile(labPath, func(f *os.File) (err error) {
		labBytes, err = names.WriteTo(f)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if db, err = Open(base); err != nil {
		return nil, 0, err
	}
	// Built from the fresh records, never loaded: a sidecar left by an
	// earlier database at base may match the node count but not the labels.
	ix, err := BuildIndex(nil, db, 0)
	if err == nil {
		err = WriteIndexFile(idxPath, ix)
	}
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	db.setIndex(ix)
	return db, labBytes, nil
}

// FullBinary is a CreateBinary feed of a full binary tree of the given
// depth whose tags it interns into names (the table passed to
// CreateBinary): a node at depth d carries the tag tags[d%len(tags)], inner
// nodes have both children. The tree has 2^(depth+1)-1 nodes, so depth 24
// yields a ~64 MB .arb file — the feed exists to make big-database
// experiments (shared-scan batching, parallel speedups) reproducible
// without materialising the tree in memory.
func FullBinary(names *tree.Names, depth int, tags ...string) func(RecordSink) error {
	return func(emit RecordSink) error {
		if depth < 0 || depth > 40 {
			return fmt.Errorf("storage: full binary depth %d out of range", depth)
		}
		if len(tags) == 0 {
			return fmt.Errorf("storage: need at least one tag")
		}
		labels := make([]tree.Label, len(tags))
		for i, tg := range tags {
			l, err := names.Intern(tg)
			if err != nil {
				return err
			}
			labels[i] = l
		}
		var node func(d int) error
		node = func(d int) error {
			inner := d < depth
			if err := emit(labels[d%len(labels)], inner, inner); err != nil || !inner {
				return err
			}
			if err := node(d + 1); err != nil {
				return err
			}
			return node(d + 1)
		}
		return node(0)
	}
}

// treeImage encodes a tree's records in preorder, checking on the way that
// the tree is laid out in preorder: node 0 is the root, and the node after
// v is v's first child if it has one, else the pending second child of v's
// nearest ancestor-or-self that has one.
func treeImage(t *tree.Tree) ([]byte, error) {
	n := t.Len()
	if n == 0 {
		return nil, fmt.Errorf("storage: empty tree")
	}
	img := make([]byte, n*NodeSize)
	var pending []tree.NodeID // second children not reached yet
	for v := tree.NodeID(0); int(v) < n; v++ {
		first, second := t.First(v), t.Second(v)
		if second != tree.None {
			pending = append(pending, second)
		}
		next, want := v+1, tree.None
		if first != tree.None {
			want = first
		} else if len(pending) > 0 {
			want, pending = pending[len(pending)-1], pending[:len(pending)-1]
		}
		if want != next && (want != tree.None || int(next) != n) {
			if err := t.CheckPreorder(); err != nil {
				return nil, fmt.Errorf("storage: tree is not laid out in preorder: %w", err)
			}
			return nil, fmt.Errorf("storage: tree is not laid out in preorder after node %d", v)
		}
		binary.BigEndian.PutUint16(img[int(v)*NodeSize:], Record{Label: uint16(t.Label(v)), HasFirst: first != tree.None, HasSecond: second != tree.None}.Encode())
	}
	return img, nil
}

// CreateFromTree writes an in-memory tree laid out in preorder as a
// database. Used by tests and by workload generators that build trees in
// memory.
func CreateFromTree(base string, t *tree.Tree) (*DB, error) {
	img, err := treeImage(t)
	if err != nil {
		return nil, err
	}
	db, _, err := create(base, t.Names(), func(arbF *os.File) error {
		_, err := arbF.Write(img)
		return err
	})
	return db, err
}
