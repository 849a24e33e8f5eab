package arb

import (
	"context"
	"fmt"
	"io"

	"arb/internal/storage"
	"arb/internal/vstore"
)

// Versioned-session surface: copy-on-write subtree patching with MVCC
// snapshots (internal/vstore). A versioned session keeps the whole
// query surface of a plain disk session — every execution strategy runs
// on a pinned version snapshot unmodified — and adds in-place mutation:
// Patch's replace, delete and insert-child write only the new
// subtree bytes plus a fixed-up index along the affected path (O(subtree),
// never O(database)), commit atomically by manifest rename, and never
// disturb a running query, which keeps reading the version it pinned.

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
	return &Session{vs: vs, ownDB: true}, nil
}

// Versioned reports whether the session supports Patch/Compact and
// MVCC snapshots.
func (s *Session) Versioned() bool { return s.vs != nil }

// Version returns the current version id of a versioned session (each
// committed patch or compaction increments it), or 0 for unversioned
// sessions.
func (s *Session) Version() uint64 {
	if s.vs == nil {
		return 0
	}
	return s.vs.Version()
}

// History returns the committed operation chain of a versioned session,
// oldest first (nil for unversioned sessions).
func (s *Session) History() []HistoryEntry {
	if s.vs == nil {
		return nil
	}
	return s.vs.History()
}

// StoreStats returns the versioned store's bookkeeping summary; ok is
// false for unversioned sessions.
func (s *Session) StoreStats() (stats StoreStats, ok bool) {
	if s.vs == nil {
		return StoreStats{}, false
	}
	return s.vs.Stats(), true
}

// errNotVersioned is the shared guard of the mutation surface.
func (s *Session) versioned() (*vstore.Store, error) {
	if s.vs == nil {
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
// executing keep reading the version they pinned.
func (s *Session) Patch(ctx context.Context, op PatchOp) (*PatchInfo, error) {
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
// (selected may be nil for plain output). Versioned sessions emit a
// consistent snapshot of the current version — a patch committing
// mid-emit changes nothing; in-memory sessions emit their tree.
func (s *Session) EmitXML(ctx context.Context, w io.Writer, selected func(v int64) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	db, _, _, release, err := s.acquire()
	defer release()
	if err != nil {
		return err
	}
	return storage.EmitXMLContext(ctx, db, w, selected)
}

// Compact rewrites the current version into a single fresh segment and
// commits it as a new version: one sequential copy of the live data,
// after which superseded patch segments are collected as soon as their
// last snapshot releases. Readers are never blocked — compaction is
// just another commit.
func (s *Session) Compact(ctx context.Context) (*PatchInfo, error) {
	vs, err := s.versioned()
	if err != nil {
		return nil, err
	}
	return vs.Compact(ctx)
}
