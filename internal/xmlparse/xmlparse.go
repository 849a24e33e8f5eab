// Package xmlparse turns XML documents into the event streams the rest of
// the repository consumes: begin-element / text / end-element, with text
// expanded to one node per character downstream (paper Section 2.1).
//
// The parser is a thin streaming layer over encoding/xml's tokenizer — the
// SAX parsing of database creation, whose events storage.EventWriter turns
// into .arb records as they arrive. It never materialises the document;
// memory use is bounded by the document depth (inside encoding/xml's
// nesting check) plus a token buffer.
package xmlparse

import (
	"encoding/xml"
	"fmt"
	"io"

	"arb/internal/storage"
	"arb/internal/tree"
)

// Handler consumes a document event stream. Both *tree.Builder (in-memory
// trees) and *storage.EventWriter (database creation) satisfy it.
type Handler interface {
	// Begin opens an element with the given tag name.
	Begin(name string) error
	// Text adds one character node per byte of s, in order.
	Text(s []byte) error
	// End closes the most recently opened element.
	End() error
}

var (
	_ Handler = (*tree.Builder)(nil)
	_ Handler = (*storage.EventWriter)(nil)
)

// Parse streams the XML document from r into h. Comments, processing
// instructions, directives and attributes are skipped — the paper's
// documents are trees of elements and characters — and CDATA arrives as
// ordinary text. It returns an error for malformed XML (encoding/xml
// enforces matched tags) or when the handler rejects an event.
func Parse(r io.Reader, h Handler) error {
	dec := xml.NewDecoder(r)
	// The paper's documents are trees of elements and text; entity
	// resolution beyond the predefined five is out of scope.
	dec.Strict = true
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if depth != 0 {
				return fmt.Errorf("xmlparse: unexpected EOF with %d open elements", depth)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("xmlparse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := h.Begin(t.Name.Local); err != nil {
				return err
			}
			depth++
		case xml.EndElement:
			if err := h.End(); err != nil {
				return err
			}
			depth--
		case xml.CharData:
			if depth == 0 {
				// Whitespace between the prolog and the root element.
				continue
			}
			if len(t) > 0 {
				if err := h.Text(t); err != nil {
					return err
				}
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the tree model.
		}
	}
}

// ParseTree parses the document into an in-memory binary tree.
func ParseTree(r io.Reader) (*tree.Tree, error) {
	b := tree.NewBuilder(nil)
	if err := Parse(r, b); err != nil {
		return nil, err
	}
	return b.Tree()
}

// CreateDB builds a .arb database under base from the XML document in r
// in one forward pass: the parser's events go to storage.Create's
// EventWriter, which writes each node's record as the node begins.
func CreateDB(base string, r io.Reader, copts storage.CreateOpts) (*storage.DB, *storage.CreateStats, error) {
	return storage.Create(base, func(ew *storage.EventWriter) error {
		return Parse(r, ew)
	}, copts)
}
