package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
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

// CreateOpts configures database creation.
type CreateOpts struct {
	// KeepEvt retains the temporary event file after creation.
	KeepEvt bool
}

// Create builds a database under the given base path (producing base.arb
// and base.lab) from the document events that feed emits. It implements
// the paper's two-pass scheme: feed is the SAX parsing pass writing the
// temporary base.evt file; the second pass reads base.evt backwards while
// writing base.arb backwards, which converts the unranked document into
// its binary-tree encoding using a stack proportional to the *document*
// depth (not to the potentially enormous sibling counts).
func Create(base string, feed func(*EventWriter) error, opts CreateOpts) (*DB, *CreateStats, error) {
	start := time.Now()
	evtPath := base + ".evt"
	arbPath := base + ".arb"
	labPath := base + ".lab"

	// Pass 1: stream events to disk.
	evtF, err := os.Create(evtPath)
	if err != nil {
		return nil, nil, err
	}
	ew := &EventWriter{w: bufio.NewWriterSize(evtF, defaultBufSize), names: tree.NewNames()}
	if err := feed(ew); err != nil {
		evtF.Close()
		return nil, nil, err
	}
	if ew.err != nil {
		evtF.Close()
		return nil, nil, ew.err
	}
	if ew.depth != 0 {
		evtF.Close()
		return nil, nil, fmt.Errorf("storage: %d unclosed elements", ew.depth)
	}
	n := ew.stats.ElemNodes + ew.stats.CharNodes
	if n == 0 {
		evtF.Close()
		return nil, nil, fmt.Errorf("storage: empty document")
	}
	if err := ew.w.Flush(); err != nil {
		evtF.Close()
		return nil, nil, err
	}

	// Pass 2: read events backwards, write .arb backwards.
	if err := buildArbBackwards(evtF, n, arbPath); err != nil {
		evtF.Close()
		return nil, nil, err
	}
	evtF.Close()

	// Write the label file.
	labF, err := os.Create(labPath)
	if err != nil {
		return nil, nil, err
	}
	labBytes, err := ew.names.WriteTo(labF)
	if err2 := labF.Close(); err == nil {
		err = err2
	}
	if err != nil {
		return nil, nil, err
	}

	stats := ew.stats
	stats.ArbBytes = n * NodeSize
	stats.EvtBytes = 2 * n * 2
	stats.LabBytes = labBytes
	stats.Tags = ew.names.Len()
	if !opts.KeepEvt {
		if err := os.Remove(evtPath); err != nil {
			return nil, nil, err
		}
	}
	db, err := Open(base)
	if err != nil {
		return nil, nil, err
	}
	// Persist the subtree chunk index so parallel evaluation never needs
	// an extra scan (one backward pass over the fresh, cached .arb).
	if err := db.WriteIndex(nil, 0); err != nil {
		db.Close()
		return nil, nil, err
	}
	stats.Duration = time.Since(start)
	return db, &stats, nil
}

// buildArbBackwards is the second creation pass. Reading the event stream
// backwards, a node's begin events appear in exactly reverse preorder, so
// records can be written strictly back-to-front. A stack frame per open
// (in reverse: not-yet-begun) element tracks whether any child has been
// seen; when a node's begin event arrives, its own frame tells whether it
// has a first child, and the parent frame — which has already seen any
// *later* sibling — tells whether it has a second child.
func buildArbBackwards(evtF *os.File, n int64, arbPath string) error {
	evtSize := 4 * n
	br, err := NewBackwardReader(evtF, evtSize, 2)
	if err != nil {
		return err
	}
	defer br.Release()
	arbF, err := os.Create(arbPath)
	if err != nil {
		return err
	}
	defer arbF.Close()
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

// CreateFullBinary writes a full binary tree of the given depth as a
// database, streaming the records straight to disk: a node at depth d
// carries the tag tags[d%len(tags)], inner nodes have both children. The
// tree has 2^(depth+1)-1 nodes, so depth 24 yields a ~64 MB .arb file —
// the generator exists to make big-database experiments (shared-scan
// batching, parallel speedups) reproducible without materialising the
// tree in memory.
func CreateFullBinary(base string, depth int, tags []string) (*DB, error) {
	if depth < 0 || depth > 40 {
		return nil, fmt.Errorf("storage: full binary depth %d out of range", depth)
	}
	if len(tags) == 0 {
		return nil, fmt.Errorf("storage: need at least one tag")
	}
	names := tree.NewNames()
	labels := make([]uint16, len(tags))
	for i, tg := range tags {
		l, err := names.Intern(tg)
		if err != nil {
			return nil, err
		}
		labels[i] = uint16(l)
	}
	arbF, err := os.Create(base + ".arb")
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(arbF, defaultBufSize)
	// Precompute the two record encodings per depth level; the preorder
	// emission is then a plain recursion of the tree's depth.
	inner := make([][2]byte, depth+1)
	leaf := make([][2]byte, depth+1)
	for d := 0; d <= depth; d++ {
		binary.BigEndian.PutUint16(inner[d][:], Record{Label: labels[d%len(labels)], HasFirst: true, HasSecond: true}.Encode())
		binary.BigEndian.PutUint16(leaf[d][:], Record{Label: labels[d%len(labels)]}.Encode())
	}
	var werr error
	var emit func(d int)
	emit = func(d int) {
		if werr != nil {
			return
		}
		if d == depth {
			_, werr = w.Write(leaf[d][:])
			return
		}
		if _, werr = w.Write(inner[d][:]); werr != nil {
			return
		}
		emit(d + 1)
		emit(d + 1)
	}
	emit(0)
	if werr == nil {
		werr = w.Flush()
	}
	if err := arbF.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return nil, werr
	}
	labF, err := os.Create(base + ".lab")
	if err != nil {
		return nil, err
	}
	if _, err := names.WriteTo(labF); err != nil {
		labF.Close()
		return nil, err
	}
	if err := labF.Close(); err != nil {
		return nil, err
	}
	db, err := Open(base)
	if err != nil {
		return nil, err
	}
	if err := db.WriteIndex(nil, 0); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
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
	if err := os.WriteFile(base+".arb", img, 0o666); err != nil {
		return nil, err
	}
	labF, err := os.Create(base + ".lab")
	if err != nil {
		return nil, err
	}
	if _, err := t.Names().WriteTo(labF); err != nil {
		labF.Close()
		return nil, err
	}
	if err := labF.Close(); err != nil {
		return nil, err
	}
	db, err := Open(base)
	if err != nil {
		return nil, err
	}
	if err := db.WriteIndex(nil, 0); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}
