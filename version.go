package arb

import (
	"context"
	"fmt"
	"io"

	"arb/internal/storage"
	"arb/internal/vstore"
)

// The versioned surface of a session: its version id and history, its
// store's bookkeeping, and copy-on-write subtree patching with MVCC
// snapshots (internal/vstore). Every session reads a store of versions and
// every execution pins one snapshot of it; a writable store — a patched
// database, or any database opened through OpenVersionedSession — adds
// in-place mutation: Patch's replace, delete and insert-child write only
// the new subtree bytes plus a fixed-up index along the affected path
// (O(subtree), never O(database)), commit atomically by manifest rename,
// and never disturb a running query, which keeps reading the version it
// pinned. A read-only session (a tree, a caller's database, a plain
// database) stays at version 1 and refuses Patch and Compact.

// PatchInfo reports one committed mutation: the version it produced,
// the node-count change, and the bytes it appended.
type PatchInfo = vstore.PatchInfo

// StoreStats is a point-in-time summary of a versioned store: current
// version, live segments and versions, outstanding snapshots, and the
// patch/compaction counts since the store was opened.
type StoreStats = vstore.StoreStats

// HistoryEntry is one committed operation of a versioned database's
// history (Session.History).
type HistoryEntry = vstore.HistoryEntry

// OpenVersionedSession opens base as a versioned database. With a
// base.arbm manifest present the manifested version loads; without one,
// the plain base.arb database bootstraps read-only as version 1 — no
// files are created or modified until the first patch commits, so
// opening versioned is free and the original .arb is never rewritten.
// ctx bounds a bootstrap index build on databases lacking a .idx
// sidecar. The session owns the store: Close releases it.
func OpenVersionedSession(ctx context.Context, base string) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vs, err := vstore.Open(ctx, base)
	if err != nil {
		return nil, err
	}
	return &Session{vs: vs}, nil
}

// Versioned reports whether the session supports Patch/Compact: false for
// a read-only session, whose one version is 1.
func (s *Session) Versioned() bool { return s.vs.Writable() }

// Version returns the session's current version id: each committed patch
// or compaction increments it, and a read-only session stays at 1.
func (s *Session) Version() uint64 { return s.vs.Version() }

// History returns the committed operation chain of the session's store,
// oldest first (a read-only session's is its one "open").
func (s *Session) History() []HistoryEntry { return s.vs.History() }

// StoreStats returns the session's store bookkeeping summary; ok is false
// for a read-only session, whose store takes no patches.
func (s *Session) StoreStats() (stats StoreStats, ok bool) {
	return s.vs.Stats(), s.Versioned()
}

// versioned returns the session's store for a patch or compaction, or the
// error refusing one on a read-only session.
func (s *Session) versioned() (*vstore.Store, error) {
	if !s.Versioned() {
		return nil, fmt.Errorf("arb: session is not versioned (open the database with OpenVersionedSession to patch it)")
	}
	return s.vs, nil
}

// PatchOp names one mutation for Session.Patch — the string-dispatched
// form the CLI and the HTTP server speak.
type PatchOp struct {
	// Op is "replace", "delete" or "insert-child":
	//   - "replace" replaces the XML subtree rooted at Node — the node and
	//     everything below it in document order, not its following
	//     siblings — with Tree, in O(|old subtree| + |Tree|) I/O;
	//   - "delete" removes the XML subtree rooted at Node (the document
	//     root cannot be deleted): a following sibling chain takes its
	//     place, or else the parent's child flag is cleared, in
	//     O(|subtree|) I/O;
	//   - "insert-child" inserts Tree as the new first child of Node,
	//     before its existing children (text nodes take no children).
	Op string
	// Node is the target's preorder id in the current version.
	Node int64
	// Tree is the fragment to splice in: required by "replace" and
	// "insert-child", nil for "delete".
	Tree *Tree
}

// Patch applies one mutation described by op, committing a new version —
// the one mutation entry point of a session, for callers that build the
// operation in code and for those that receive it as data (the arb CLI's
// patch subcommand, the server's POST /patch) alike. Queries already
// executing keep reading the version they pinned. A nil ctx means
// context.Background().
func (s *Session) Patch(ctx context.Context, op PatchOp) (*PatchInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vs, err := s.versioned()
	if err != nil {
		return nil, err
	}
	switch op.Op {
	case "replace":
		return vs.ReplaceSubtree(ctx, op.Node, op.Tree)
	case "delete":
		if op.Tree != nil {
			return nil, fmt.Errorf("arb: patch op %q takes no fragment", op.Op)
		}
		return vs.DeleteSubtree(ctx, op.Node)
	case "insert-child":
		return vs.InsertChild(ctx, op.Node, op.Tree)
	default:
		return nil, fmt.Errorf("arb: unknown patch op %q (want replace, delete or insert-child)", op.Op)
	}
}

// EmitXML writes the session's document back out as XML, wrapping the
// nodes for which selected returns true in <arb:selected> markup
// (selected may be nil for plain output). It emits a consistent snapshot
// of the current version: a patch committing mid-emit changes nothing.
func (s *Session) EmitXML(ctx context.Context, w io.Writer, selected func(v int64) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.pinned(func(db *storage.DB, _ *Names, _ uint64) error {
		return storage.EmitXMLContext(ctx, db, w, selected)
	})
}

// Compact rewrites the current version into a single fresh segment and
// commits it as a new version: one sequential copy of the live data,
// after which superseded patch segments are collected as soon as their
// last snapshot releases. Readers are never blocked — compaction is
// just another commit. A nil ctx means context.Background().
func (s *Session) Compact(ctx context.Context) (*PatchInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vs, err := s.versioned()
	if err != nil {
		return nil, err
	}
	return vs.Compact(ctx)
}
