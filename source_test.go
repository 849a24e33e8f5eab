package arb

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"arb/internal/storage"
)

// TestSessionSources holds every way of opening a session to the one
// store model: a tree, a caller's database, a plain, a compressed and a
// patched database through OpenSession, and OpenVersionedSession. Each
// reports its document, version, history, versioning and compression
// through the store; the read-only kinds refuse Patch and Compact; and
// Close closes the database exactly when the session opened it.
func TestSessionSources(t *testing.T) {
	const doc = `<a><b>xy</b><c><b>z</b></c></a>`
	tr, err := ParseXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	frag, err := ParseXML(strings.NewReader(`<b>w</b>`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	create := func(name string) string {
		base := filepath.Join(dir, name)
		db, err := CreateDBFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		return base
	}
	plain, lz, patched, unpatched := create("plain"), create("lz"), create("patched"), create("unpatched")
	if _, err := CompressDB(lz, 0); err != nil {
		t.Fatal(err)
	}
	vs, err := OpenVersionedSession(nil, patched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vs.Patch(context.Background(), PatchOp{Op: "insert-child", Node: 0, Tree: frag}); err != nil {
		t.Fatal(err)
	}
	vs.Close()
	callerDB, err := OpenDB(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer callerDB.Close()

	open := func(base string) func() (*Session, error) {
		return func() (*Session, error) { return OpenSession(base) }
	}
	openHistory := []HistoryEntry{{Version: 1, Op: "open"}}
	for _, src := range []struct {
		name       string
		open       func() (*Session, error)
		len        int64
		version    uint64
		history    int // entries, the first of them openHistory's
		versioned  bool
		compressed bool
		closesDB   bool
	}{
		{"NewSession", func() (*Session, error) { return NewSession(tr), nil }, 7, 1, 1, false, false, false},
		{"NewDBSession", func() (*Session, error) { return NewDBSession(callerDB), nil }, 7, 1, 1, false, false, false},
		{"OpenSession/plain", open(plain), 7, 1, 1, false, false, true},
		{"OpenSession/lz", open(lz), 7, 1, 1, false, true, true},
		{"OpenSession/patched", open(patched), 9, 2, 2, true, false, true},
		{"OpenVersionedSession", func() (*Session, error) { return OpenVersionedSession(nil, unpatched) }, 7, 1, 1, true, false, true},
	} {
		t.Run(src.name, func(t *testing.T) {
			sess, err := src.open()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sess.Names().All(), tr.Names().All(); !reflect.DeepEqual(got, want) {
				t.Errorf("Names %v, want %v", got, want)
			}
			if got := sess.Len(); got != src.len {
				t.Errorf("Len %d, want %d", got, src.len)
			}
			if got := sess.Version(); got != src.version {
				t.Errorf("Version %d, want %d", got, src.version)
			}
			if h := sess.History(); len(h) != src.history || h[0] != openHistory[0] || h[len(h)-1].Version != src.version {
				t.Errorf("History %v, want %d entries from %v to version %d", h, src.history, openHistory, src.version)
			}
			if got := sess.Versioned(); got != src.versioned {
				t.Errorf("Versioned %v, want %v", got, src.versioned)
			}
			if _, got := sess.Compression(); got != src.compressed {
				t.Errorf("Compression reports %v, want %v", got, src.compressed)
			}
			if _, ok := sess.StoreStats(); ok != src.versioned {
				t.Errorf("StoreStats ok %v, want %v", ok, src.versioned)
			}
			pq, err := sess.PrepareXPath(mustParseXPath(t, "//b"))
			if err != nil {
				t.Fatal(err)
			}
			_, prof, err := pq.Exec(context.Background(), ExecOpts{Stats: true})
			if err != nil {
				t.Fatal(err)
			}
			if prof.Version != src.version {
				t.Errorf("Exec read version %d, want %d", prof.Version, src.version)
			}
			if !src.versioned {
				_, perr := sess.Patch(context.Background(), PatchOp{Op: "delete", Node: 1})
				_, cerr := sess.Compact(context.Background())
				for op, err := range map[string]error{"Patch": perr, "Compact": cerr} {
					if err == nil || !strings.Contains(err.Error(), "not versioned") {
						t.Errorf("%s on a read-only session: error %v, want one saying not versioned", op, err)
					}
				}
			}

			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			// A fresh session's database has no block cached yet, so a read
			// after Close reaches the file.
			again, err := src.open()
			if err != nil {
				t.Fatal(err)
			}
			if err := again.Close(); err != nil {
				t.Fatal(err)
			}
			var readErr error
			again.pinned(func(db *storage.DB, _ *Names, _ uint64) error {
				_, readErr = db.RecordAt(0)
				return nil
			})
			if closed := readErr != nil; closed != src.closesDB {
				t.Errorf("after Close, reading the session's database returned %v; want it closed: %v", readErr, src.closesDB)
			}
		})
	}
	if _, err := callerDB.RecordAt(0); err != nil {
		t.Fatalf("closing a NewDBSession closed the caller's database: %v", err)
	}
}

func mustParseXPath(t *testing.T, src string) *XPathQuery {
	t.Helper()
	q, err := ParseXPath(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
