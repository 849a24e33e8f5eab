package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"arb/internal/tree"
)

// CreateStats reports the statistics of a database creation run — exactly
// the columns of Figure 5 of the paper.
type CreateStats struct {
	ElemNodes int64         // (1) element nodes inserted
	CharNodes int64         // (2) character nodes inserted
	Tags      int           // (3) distinct tags (not counting characters)
	Duration  time.Duration // (4) overall creation time
	ArbBytes  int64         // (5) .arb file size
	LabBytes  int64         // (6) .lab file size
	EvtBytes  int64         // (7) temporary .evt file size
}

// EventWriter is the sink of the first (SAX parsing) creation pass: it
// interns tag names, counts nodes, and writes begin/end events to the
// temporary event file (two 2-byte events per node).
type EventWriter struct {
	w     *bufio.Writer
	names *tree.Names
	depth int
	stats CreateStats
	err   error
	buf   [2]byte
}

func (e *EventWriter) emit(v uint16) {
	if e.err != nil {
		return
	}
	binary.BigEndian.PutUint16(e.buf[:], v)
	if _, err := e.w.Write(e.buf[:]); err != nil {
		e.err = err
	}
}

// Begin opens an element with the given tag.
func (e *EventWriter) Begin(name string) error {
	if e.err != nil {
		return e.err
	}
	l, err := e.names.Intern(name)
	if err != nil {
		e.err = err
		return err
	}
	e.stats.ElemNodes++
	e.depth++
	e.emit(uint16(l))
	return e.err
}

// Text adds the bytes of s as character nodes (a begin and an end event
// each: characters are leaves).
func (e *EventWriter) Text(s []byte) error {
	if e.err != nil {
		return e.err
	}
	if e.depth == 0 && len(s) > 0 {
		e.err = fmt.Errorf("storage: text outside document root")
		return e.err
	}
	for _, c := range s {
		e.stats.CharNodes++
		e.emit(uint16(c))
		e.emit(evtEnd)
	}
	return e.err
}

// End closes the innermost open element.
func (e *EventWriter) End() error {
	if e.err != nil {
		return e.err
	}
	if e.depth == 0 {
		e.err = fmt.Errorf("storage: unbalanced end event")
		return e.err
	}
	e.depth--
	e.emit(evtEnd)
	return e.err
}

// CreateOpts configures database creation. It has no options.
type CreateOpts struct{}

// Create builds a database under the given base path (producing base.arb
// and base.lab) from the document events that feed emits. It implements
// the paper's two-pass scheme: feed is the SAX parsing pass writing a
// temporary event file, an anonymous scratch file next to the database;
// the second pass reads it backwards while writing base.arb backwards,
// which converts the unranked document into its binary-tree encoding using
// a stack proportional to the *document* depth (not to the potentially
// enormous sibling counts). A failed creation removes every file it
// wrote, the event file included. Creating over a patched database
// replaces it whole: its versioned store goes too.
func Create(base string, feed func(*EventWriter) error, _ CreateOpts) (db *DB, stats *CreateStats, err error) {
	start := time.Now()

	// Pass 1: stream events to disk.
	evtF, err := createTemp(base, ".evt")
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := evtF.Close(); cerr != nil && err == nil {
			db.Close()
			db, stats, err = nil, nil, cerr
		}
	}()
	ew := &EventWriter{w: bufio.NewWriterSize(evtF, defaultBufSize), names: tree.NewNames()}
	if err := feed(ew); err != nil {
		return nil, nil, err
	}
	if ew.err != nil {
		return nil, nil, ew.err
	}
	if ew.depth != 0 {
		return nil, nil, fmt.Errorf("storage: %d unclosed elements", ew.depth)
	}
	n := ew.stats.ElemNodes + ew.stats.CharNodes
	if n == 0 {
		return nil, nil, fmt.Errorf("storage: empty document")
	}
	if err := ew.w.Flush(); err != nil {
		return nil, nil, err
	}

	// Pass 2: read events backwards, write .arb backwards.
	db, labBytes, err := create(base, ew.names, func(arbF *os.File) error {
		return buildArbBackwards(evtF, n, arbF)
	})
	if err != nil {
		return nil, nil, err
	}
	st := ew.stats
	st.ArbBytes = n * NodeSize
	st.EvtBytes = 2 * n * 2
	st.LabBytes = labBytes
	st.Tags = ew.names.Len()
	st.Duration = time.Since(start)
	return db, &st, nil
}

// create is the tail every creation path shares: write fills base.arb,
// then create writes names to base.lab, opens the database and persists
// its subtree chunk index as base.idx (one backward pass over the fresh,
// cached .arb), so parallel evaluation never needs an extra scan. Each
// file is committed through WriteFile, so it is durable before the next
// one is written. It returns the .lab size. A failure at any step removes
// the files create committed, so a failed creation leaves nothing behind.
// A versioned store over base goes first (removeVersioned): it describes
// the records being replaced.
func create(base string, names *tree.Names, write func(arbF *os.File) error) (db *DB, labBytes int64, err error) {
	arbPath, labPath := base+".arb", base+".lab"
	if err := removeVersioned(base); err != nil {
		return nil, 0, err
	}
	if err := WriteFile(arbPath, write); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			os.Remove(arbPath)
			os.Remove(labPath)
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
		err = WriteIndexFile(base+".idx", ix)
	}
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	db.setIndex(ix)
	return db, labBytes, nil
}

// buildArbBackwards is the second creation pass. Reading the event stream
// backwards, a node's begin events appear in exactly reverse preorder, so
// records can be written strictly back-to-front. A stack frame per open
// (in reverse: not-yet-begun) element tracks whether any child has been
// seen; when a node's begin event arrives, its own frame tells whether it
// has a first child, and the parent frame — which has already seen any
// *later* sibling — tells whether it has a second child.
func buildArbBackwards(evtF io.ReaderAt, n int64, arbF *os.File) error {
	evtSize := 4 * n
	br, err := NewBackwardReader(evtF, evtSize, 2)
	if err != nil {
		return err
	}
	defer br.Release()
	if err := arbF.Truncate(n * NodeSize); err != nil {
		return err
	}
	bw := NewBackwardWriter(arbF, n*NodeSize)

	type frame struct{ sawChild bool }
	var stack []frame
	var rec [2]byte
	for {
		b, err := br.Next()
		if err != nil {
			break // io.EOF: all events consumed
		}
		v := binary.BigEndian.Uint16(b)
		if v&evtEnd != 0 {
			stack = append(stack, frame{})
			continue
		}
		// Begin event for a node with label v.
		if len(stack) == 0 {
			return fmt.Errorf("storage: unbalanced begin event")
		}
		own := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := Record{Label: v, HasFirst: own.sawChild}
		if len(stack) > 0 {
			r.HasSecond = stack[len(stack)-1].sawChild
			stack[len(stack)-1].sawChild = true
		}
		binary.BigEndian.PutUint16(rec[:], r.Encode())
		bw.Prepend(rec[:])
	}
	if len(stack) != 0 {
		return fmt.Errorf("storage: %d unmatched end events", len(stack))
	}
	return bw.Close()
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
