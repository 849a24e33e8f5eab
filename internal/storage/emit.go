package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"arb/internal/tree"
)

// EmitXMLContext serialises the database back to XML in one forward
// scan, marking selected nodes: selected elements get an
// arb:selected="true" attribute, and runs of selected character nodes
// are wrapped in <arb:sel>..</arb:sel>. This is the Arb system's default
// output mode (Section 6.3: "the entire XML document is returned with
// selected nodes marked up in the usual XML fashion"). selected may be
// nil for plain serialisation. A cancelled ctx aborts the scan and
// returns ctx.Err().
func EmitXMLContext(ctx context.Context, db *DB, w io.Writer, selected func(v int64) bool) error {
	e := NewXMLEmitter(w, db.Names)
	var st ScanStats
	err := db.ForwardWindows(ctx, 0, db.N, nil, nil, &st, nil, func(first int64, recs []byte) error {
		for i := 0; i < len(recs); i += NodeSize {
			v := first + int64(i/NodeSize)
			if err := e.Node(v, DecodeRecord(binary.BigEndian.Uint16(recs[i:])), selected != nil && selected(v)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return e.Finish()
}

// NewXMLEmitter returns a streaming XML serialiser for feeding nodes in
// preorder from an existing forward scan — this is how query answers are
// output during the second evaluation phase itself (Section 6.3), with
// no additional pass over the data.
func NewXMLEmitter(w io.Writer, names *tree.Names) *XMLEmitter {
	return &XMLEmitter{w: bufio.NewWriterSize(w, defaultBufSize), names: names, owed: 1}
}

type emitFrame struct {
	kind byte // 'c' = close element when popped; 's' = second subtree boundary
	tag  string
}

// XMLEmitter is the streaming serialiser behind EmitXML.
type XMLEmitter struct {
	w     *bufio.Writer
	names *tree.Names
	stack []emitFrame
	inSel bool // inside an <arb:sel> run of selected characters
	// owed counts the announced subtrees not yet begun: the root's, then
	// one per child flag, less one per node. Records form one binary
	// tree in preorder iff it stays positive until the last node and ends
	// at zero.
	owed int64
	err  error
}

func (e *XMLEmitter) str(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *XMLEmitter) endSelRun() {
	if e.inSel {
		e.str("</arb:sel>")
		e.inSel = false
	}
}

// Node processes one preorder node. sel marks it as selected.
func (e *XMLEmitter) Node(v int64, rec Record, sel bool) error {
	if e.owed == 0 {
		return fmt.Errorf("%w: record %d follows the root's subtree", ErrMalformed, v)
	}
	e.owed--
	if rec.HasFirst {
		e.owed++
	}
	if rec.HasSecond {
		e.owed++
	}
	l := tree.Label(rec.Label)
	if l.IsChar() {
		if sel && !e.inSel {
			e.str("<arb:sel>")
			e.inSel = true
		} else if !sel {
			e.endSelRun()
		}
		e.str(escapeChar(l.Char()))
	} else {
		e.endSelRun()
		tag, ok := e.names.TagName(l)
		if !ok {
			tag = fmt.Sprintf("label-%d", l)
		}
		if sel {
			e.str("<" + tag + ` arb:selected="true"`)
		} else {
			e.str("<" + tag)
		}
		if rec.HasFirst {
			e.str(">")
			// Close after the first subtree. Frames are popped LIFO, so
			// push the second-subtree boundary below the close frame.
			if rec.HasSecond {
				e.stack = append(e.stack, emitFrame{kind: 's'})
			}
			e.stack = append(e.stack, emitFrame{kind: 'c', tag: tag})
			return e.err
		}
		e.str("/>")
	}
	// Leaf in the binary sense or an immediately-closed element: unwind
	// unless a second subtree follows directly.
	if rec.HasSecond {
		return e.err
	}
	for len(e.stack) > 0 {
		f := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if f.kind == 'c' {
			e.endSelRun()
			e.str("</" + f.tag + ">")
			continue
		}
		break // 's': the owner's second subtree starts with the next node
	}
	return e.err
}

// Finish closes any open runs and flushes. It must be called once after
// the last node.
func (e *XMLEmitter) Finish() error {
	e.endSelRun()
	if e.err == nil && e.owed != 0 {
		return fmt.Errorf("%w: %d announced subtrees missing at end of file", ErrMalformed, e.owed)
	}
	if e.err == nil {
		e.err = e.w.Flush()
	}
	return e.err
}

func escapeChar(c byte) string {
	switch c {
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '&':
		return "&amp;"
	case '"':
		return "&quot;"
	default:
		return string(rune(c))
	}
}
