package vstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"arb/internal/storage"
	"arb/internal/tree"
)

// Fragment index-entry policy: a patch should leave the subtree it
// wrote as navigable as the rest of the database, so the encoder emits
// index entries for the fragment's heaviest inner subtrees — but a
// fragment is O(subtree), so a small budget suffices.
const (
	fragEntryBudget  = 512
	fragEntryMinSize = 8
)

// fragment is one encoded XML subtree, ready to become a patch segment:
// the preorder records, its root's entry (the root's label and the label
// signature of the whole fragment), index entries for its heaviest inner
// subtrees (V relative to the fragment
// start; the fragment root itself is excluded — its extent depends on
// where the fragment lands, so the splice constructs it), and the
// label-name table the new version must use (grown copy-on-write when
// the fragment introduced new tags).
type fragment struct {
	recs     []byte
	nodes    int64
	root     storage.IndexEntry
	entries  []storage.IndexEntry
	names    *tree.Names
	grewName bool
}

// cloneNames copies an append-only label table; label ids are preserved
// because interning replays in index order.
func cloneNames(ns *tree.Names) *tree.Names {
	out := tree.NewNames()
	for _, name := range ns.All() {
		out.MustIntern(name)
	}
	return out
}

// encodeFragment serialises t — one XML subtree: its root must have no
// next sibling — into .arb records. Labels are remapped into names,
// growing a copy-on-write clone when t uses tags names has not seen
// (label ids are append-only across versions, so every existing
// snapshot's table remains valid as a prefix). rootHasSecond overrides
// the root record's second-subtree flag, which describes the splice
// target, not the fragment. The fragment's index entries and signature
// come from storage.BuildIndex over its records; cancelling ctx aborts
// that fold.
func encodeFragment(ctx context.Context, t *tree.Tree, rootHasSecond bool, names *tree.Names) (*fragment, error) {
	if t == nil || t.Len() == 0 {
		return nil, fmt.Errorf("vstore: the patch needs a non-empty fragment tree")
	}
	n := t.Len()
	root := t.Root()
	if t.HasSecond(root) {
		return nil, fmt.Errorf("vstore: replacement tree root has a next sibling (not a single subtree)")
	}
	f := &fragment{recs: make([]byte, 0, n*storage.NodeSize), names: names}

	// Copy-on-write label remap: resolve each of t's named labels to an
	// id in the store's table, interning unseen tags into a clone.
	remap := make(map[tree.Label]uint16)
	mapLabel := func(l tree.Label) (uint16, error) {
		if l.IsChar() {
			return uint16(l), nil
		}
		if id, ok := remap[l]; ok {
			return id, nil
		}
		name, ok := t.Names().TagName(l)
		if !ok {
			return 0, fmt.Errorf("vstore: replacement tree uses unknown label %d", l)
		}
		id, ok := f.names.Lookup(name)
		if !ok {
			if !f.grewName {
				f.names = cloneNames(f.names)
				f.grewName = true
			}
			var err error
			id, err = f.names.Intern(name)
			if err != nil {
				return 0, err
			}
		}
		remap[l] = uint16(id)
		return uint16(id), nil
	}

	// Preorder walk in binary order (node, first subtree, second
	// subtree), encoding each node's label and child flags. The root's
	// second-subtree flag stays false until the index is built, so the
	// records fold as one subtree.
	var buf [storage.NodeSize]byte
	stack := []tree.NodeID{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		label, err := mapLabel(t.Label(v))
		if err != nil {
			return nil, err
		}
		rec := storage.Record{Label: label, HasFirst: t.HasFirst(v), HasSecond: v != root && t.HasSecond(v)}
		binary.BigEndian.PutUint16(buf[:], rec.Encode())
		f.recs = append(f.recs, buf[:]...)
		if s := t.Second(v); v != root && s != tree.None {
			stack = append(stack, s)
		}
		if c := t.First(v); c != tree.None {
			stack = append(stack, c)
		}
	}
	f.nodes = int64(len(f.recs) / storage.NodeSize)

	// The fragment root is the largest subtree, so a budget of one more
	// than fragEntryBudget keeps it plus the heaviest inner subtrees; the
	// fold's structure check doubles as a cycle/shape check on t.
	db := storage.NewVirtualDB("", bytes.NewReader(f.recs), f.nodes, f.names, nil)
	ix, err := storage.BuildIndex(ctx, db, fragEntryBudget+1)
	if err != nil {
		return nil, fmt.Errorf("vstore: indexing the replacement tree: %w", err)
	}
	all := ix.Entries() // sorted by V: the root entry comes first
	f.root = all[0]
	for _, e := range all[1:] {
		if e.Size >= fragEntryMinSize {
			f.entries = append(f.entries, e)
		}
	}

	// The root carries the splice target's second-subtree flag.
	rec := storage.DecodeRecord(binary.BigEndian.Uint16(f.recs))
	rec.HasSecond = rootHasSecond
	binary.BigEndian.PutUint16(f.recs, rec.Encode())
	return f, nil
}
