package tree

import (
	"errors"
	"fmt"
)

// EventHandler consumes a document event stream; it is structurally
// identical to xmlparse.Handler (tree cannot import xmlparse, which
// depends on this package). A Builder is one.
type EventHandler interface {
	Begin(name string) error
	Text(s []byte) error
	End() error
}

// Builder incrementally constructs a Tree from an unranked-document event
// stream (begin-element / text / end-element), producing the first-child/
// next-sibling binary encoding in preorder. Because document order equals
// preorder of the binary encoding, the builder works in a single forward
// pass with a stack bounded by the document depth.
type Builder struct {
	t *Tree
	// stack holds, per open element, the element node and its most
	// recently added child (None if it has none yet).
	stack []builderFrame
	done  bool
	err   error
}

// ErrContentAfterRoot rejects a Begin once the document root has closed:
// a document has one root.
var ErrContentAfterRoot = errors.New("tree: content after document root")

type builderFrame struct {
	node      NodeID
	lastChild NodeID
}

// NewBuilder returns a builder producing into a fresh tree that uses the
// given name table (nil for a fresh one).
func NewBuilder(names *Names) *Builder {
	return &Builder{t: New(names)}
}

func (b *Builder) fail(err error) error {
	if b.err == nil {
		b.err = err
	}
	return b.err
}

// attach links a fresh node v as the next child of the innermost open
// element (or as the root if none is open).
func (b *Builder) attach(v NodeID) error {
	if len(b.stack) == 0 {
		if v != 0 {
			return b.fail(errors.New("tree: multiple document roots"))
		}
		return nil
	}
	top := &b.stack[len(b.stack)-1]
	if top.lastChild == None {
		b.t.SetFirst(top.node, v)
	} else {
		b.t.SetSecond(top.lastChild, v)
	}
	top.lastChild = v
	return nil
}

// Begin opens an element with the given tag name.
func (b *Builder) Begin(name string) error {
	if b.err != nil {
		return b.err
	}
	if b.done {
		return b.fail(ErrContentAfterRoot)
	}
	l, err := b.t.names.Intern(name)
	if err != nil {
		return b.fail(err)
	}
	v := b.t.AddNode(l)
	if err := b.attach(v); err != nil {
		return err
	}
	b.stack = append(b.stack, builderFrame{node: v, lastChild: None})
	return nil
}

// Text adds the bytes of s as character nodes, one node per byte, children
// of the innermost open element (paper Section 2.1: text is part of the
// tree, one node per character).
func (b *Builder) Text(s []byte) error {
	if b.err != nil {
		return b.err
	}
	if len(b.stack) == 0 {
		if len(s) > 0 {
			return b.fail(errors.New("tree: text outside document root"))
		}
		return nil
	}
	for _, c := range s {
		v := b.t.AddNode(Label(c))
		if err := b.attach(v); err != nil {
			return err
		}
	}
	return nil
}

// End closes the innermost open element.
func (b *Builder) End() error {
	if b.err != nil {
		return b.err
	}
	if len(b.stack) == 0 {
		return b.fail(errors.New("tree: unbalanced end event"))
	}
	b.stack = b.stack[:len(b.stack)-1]
	if len(b.stack) == 0 {
		b.done = true
	}
	return nil
}

// Depth returns the current open-element nesting depth.
func (b *Builder) Depth() int { return len(b.stack) }

// Tree finalises and returns the built tree. It is an error if elements
// remain open or no root was ever produced.
func (b *Builder) Tree() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("tree: %d unclosed elements", len(b.stack))
	}
	if b.t.Len() == 0 {
		return nil, errors.New("tree: empty document")
	}
	return b.t, nil
}

// FromUnranked builds a tree from a parent/children adjacency given as
// nested structure, mainly for tests. A Node value is an element with a tag
// and children, or a text string.
type UNode struct {
	Tag      string
	Text     string // if Tag == "", a text run
	Children []UNode
}

// BuildUnranked converts a nested unranked description into a binary Tree.
func BuildUnranked(root UNode, names *Names) (*Tree, error) {
	b := NewBuilder(names)
	var walk func(n UNode) error
	walk = func(n UNode) error {
		if n.Tag == "" {
			return b.Text([]byte(n.Text))
		}
		if err := b.Begin(n.Tag); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return b.End()
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return b.Tree()
}
