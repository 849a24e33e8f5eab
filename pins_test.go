package arb

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/storage"
)

// writeFunc adapts a function to io.Writer.
type writeFunc func([]byte) (int, error)

func (f writeFunc) Write(p []byte) (int, error) { return f(p) }

// TestSessionPinsGauge holds the store's snapshot count to the pins
// pinned takes, on every kind of source — a versioned store, a tree's
// record image and a caller's database: each call holds one for fn's
// whole run and releases it on every way out — a normal return, fn's
// error or panic, and an Exec whose context is cancelled mid-scan — so a
// quiescent session reads zero. Every caller of pinned (Exec,
// PreparedBatch.Exec, EmitXML and TryCached) has a row that holds one pin
// while it runs and none after.
func TestSessionPinsGauge(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<a>")
	for range 20000 {
		doc.WriteString("<b><c>text</c></b>")
	}
	doc.WriteString("</a>")
	tr, err := ParseXML(strings.NewReader(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateDBFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess, err := OpenVersionedSession(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	pinsGauge(t, sess)
	for name, sess := range map[string]*Session{"tree": NewSession(tr), "db": NewDBSession(db)} {
		t.Run(name, func(t *testing.T) {
			defer sess.Close()
			pinsGauge(t, sess)
		})
	}
}

// pinsGauge runs TestSessionPinsGauge's rows on one session.
func pinsGauge(t *testing.T, sess *Session) {
	snapshots := func(t *testing.T, want int, when string) {
		t.Helper()
		if got := sess.vs.Stats().Snapshots; got != want {
			t.Fatalf("%s: store holds %d snapshots, want %d", when, got, want)
		}
	}

	prepare := func(t *testing.T, xpath string) *PreparedQuery {
		t.Helper()
		xq, err := ParseXPath(xpath)
		if err != nil {
			t.Fatal(err)
		}
		pq, err := sess.PrepareXPath(xq)
		if err != nil {
			t.Fatal(err)
		}
		return pq
	}

	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"nested", func(t *testing.T) {
			err := sess.pinned(func(*storage.DB, *Names, uint64) error {
				if err := sess.pinned(func(*storage.DB, *Names, uint64) error {
					snapshots(t, 2, "inside two calls")
					return nil
				}); err != nil {
					return err
				}
				snapshots(t, 1, "after the inner call")
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"fn-error", func(t *testing.T) {
			boom := errors.New("boom")
			if err := sess.pinned(func(*storage.DB, *Names, uint64) error { return boom }); err != boom {
				t.Fatalf("pinned returned %v, want fn's error", err)
			}
		}},
		{"exec-cancel", func(t *testing.T) {
			pq := prepare(t, "//b/c")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The marked output's first write lands mid-scan: read the
			// store's pins there, then cancel.
			held := -1
			mark := writeFunc(func(p []byte) (int, error) {
				if held < 0 {
					held = sess.vs.Stats().Snapshots
					cancel()
				}
				return len(p), nil
			})
			if _, _, err := pq.Exec(ctx, ExecOpts{MarkTo: mark}); !errors.Is(err, context.Canceled) {
				t.Fatalf("Exec cancelled mid-scan returned %v, want context.Canceled", err)
			}
			if held != 1 {
				t.Fatalf("Exec mid-scan held %d snapshots, want 1", held)
			}
		}},
		{"fn-panic", func(t *testing.T) {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want fn's panic", r)
				}
			}()
			sess.pinned(func(*storage.DB, *Names, uint64) error { panic("boom") })
		}},
		{"exec", func(t *testing.T) {
			pq := prepare(t, "//b/c")
			held := -1
			mark := writeFunc(func(p []byte) (int, error) {
				if held < 0 {
					held = sess.vs.Stats().Snapshots
				}
				return len(p), nil
			})
			res, _, err := pq.Exec(context.Background(), ExecOpts{MarkTo: mark})
			if err != nil {
				t.Fatal(err)
			}
			if held != 1 {
				t.Fatalf("Exec mid-scan held %d snapshots, want 1", held)
			}
			if n := res.Count(pq.Queries()[0]); n != 20000 {
				t.Fatalf("Exec selected %d nodes, want 20000", n)
			}
		}},
		{"batch-exec", func(t *testing.T) {
			b, err := sess.BatchOf(prepare(t, "//b/c"), prepare(t, "//b"))
			if err != nil {
				t.Fatal(err)
			}
			counts, err := b.Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if counts[0] != 20000 || counts[1] != 20000 {
				t.Fatalf("batch counts %v, want [20000 20000]", counts)
			}
		}},
		{"batch-cancel", func(t *testing.T) {
			b, err := sess.BatchOf(prepare(t, "//b/c"))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := b.Exec(ctx, ExecOpts{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("batch Exec on a cancelled context returned %v, want context.Canceled", err)
			}
		}},
		{"emit-xml-error", func(t *testing.T) {
			full := errors.New("disk full")
			held := -1
			w := writeFunc(func([]byte) (int, error) {
				held = sess.vs.Stats().Snapshots
				return 0, full
			})
			if err := sess.EmitXML(context.Background(), w, nil); !errors.Is(err, full) {
				t.Fatalf("EmitXML returned %v, want the writer's error", err)
			}
			if held != 1 {
				t.Fatalf("EmitXML mid-write held %d snapshots, want 1", held)
			}
		}},
		// Runs last: it attaches a result cache to the shared session.
		{"try-cached", func(t *testing.T) {
			sess.SetResultCache(1 << 20)
			pq := prepare(t, "//b/c")
			if _, _, ok := pq.TryCached(); ok {
				t.Fatal("TryCached hit an empty cache")
			}
			if _, _, err := pq.Exec(context.Background(), ExecOpts{ResultCache: true}); err != nil {
				t.Fatal(err)
			}
			res, prof, ok := pq.TryCached()
			if !ok {
				t.Fatal("TryCached missed a published result")
			}
			if prof.Version != sess.Version() {
				t.Fatalf("TryCached read version %d, want %d", prof.Version, sess.Version())
			}
			if n := res.Count(pq.Queries()[0]); n != 20000 {
				t.Fatalf("cached result selects %d nodes, want 20000", n)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			snapshots(t, 0, "before")
			row.run(t)
			snapshots(t, 0, "after")
		})
	}
}
