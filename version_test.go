package arb_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"arb"
)

// randElemXML returns a random element-only document of at most maxNodes
// nodes. With serial non-nil, roughly an eighth of the tags are freshly
// minted names — patches built from such fragments grow the label table,
// exercising the prepared handles' lazy recompilation.
func randElemXML(r *rand.Rand, serial *int, maxNodes int) string {
	tags := []string{"a", "b", "c", "d", "e"}
	var b strings.Builder
	budget := 1 + r.Intn(maxNodes)
	var emit func() int
	emit = func() int {
		tag := tags[r.Intn(len(tags))]
		if serial != nil && r.Intn(8) == 0 {
			*serial++
			tag = fmt.Sprintf("g%d", *serial)
		}
		used := 1
		budget--
		b.WriteString("<" + tag + ">")
		for budget > 0 && r.Intn(2) == 0 {
			used += emit()
		}
		b.WriteString("</" + tag + ">")
		return used
	}
	emit()
	return b.String()
}

// TestVersionedSessionDifferential drives a random patch sequence
// through the public Session surface and, at every checkpoint, holds the
// versioned store to the freshly-created oracle: the current version is
// emitted, rebuilt as a plain flat .arb database, and every execution
// strategy — sequential, parallel, pruning disabled, shared-scan batch —
// must select exactly the nodes the flat database selects — and the XPath
// interpreter over the emitted document — while the emitted documents
// match byte for byte. Compaction and reopening from
// disk must be invisible to all of it.
func TestVersionedSessionDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			base := filepath.Join(dir, "db")

			doc, err := arb.ParseXML(strings.NewReader("<a>" + randElemXML(r, nil, 40) + randElemXML(r, nil, 40) + "</a>"))
			if err != nil {
				t.Fatal(err)
			}
			db, err := arb.CreateDBFromTree(base, doc)
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
			sess, err := arb.OpenVersionedSession(nil, base)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { sess.Close() }()

			sources := []string{"//a/b", "//c", "//b//d", "//a/b/c", "//e"}
			queries := make([]*arb.XPathQuery, len(sources))
			prepared := make([]*arb.PreparedQuery, len(sources))
			items := make([]any, len(sources))
			for i, src := range sources {
				if queries[i], err = arb.ParseXPath(src); err != nil {
					t.Fatal(err)
				}
				if prepared[i], err = sess.PrepareXPath(queries[i]); err != nil {
					t.Fatal(err)
				}
				items[i] = queries[i]
			}
			batch, err := sess.PrepareBatch(items...)
			if err != nil {
				t.Fatal(err)
			}

			oracleN := 0
			verify := func() {
				t.Helper()
				// Freshly-created oracle: emit the current version and
				// rebuild it as a plain single-file database.
				var emitted bytes.Buffer
				if err := sess.EmitXML(nil, &emitted, nil); err != nil {
					t.Fatal(err)
				}
				otree, err := arb.ParseXML(bytes.NewReader(emitted.Bytes()))
				if err != nil {
					t.Fatalf("version %d does not emit parseable XML: %v", sess.Version(), err)
				}
				oracleN++
				obase := filepath.Join(dir, fmt.Sprintf("oracle%d", oracleN))
				odb, err := arb.CreateDBFromTree(obase, otree)
				if err != nil {
					t.Fatal(err)
				}
				odb.Close()
				osess, err := arb.OpenSession(obase)
				if err != nil {
					t.Fatal(err)
				}
				defer osess.Close()

				if got, want := sess.Len(), osess.Len(); got != want {
					t.Fatalf("version %d holds %d nodes, flat recreation %d", sess.Version(), got, want)
				}
				var flat bytes.Buffer
				if err := osess.EmitXML(nil, &flat, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(emitted.Bytes(), flat.Bytes()) {
					t.Fatalf("version %d emission differs from its flat recreation", sess.Version())
				}

				bres, bprof, err := batch.Exec(nil, arb.ExecOpts{Stats: true})
				if err != nil {
					t.Fatal(err)
				}
				if bprof.Version != sess.Version() {
					t.Fatalf("batch read version %d, store is at %d", bprof.Version, sess.Version())
				}
				for i, pq := range prepared {
					opq, err := osess.PrepareXPath(queries[i])
					if err != nil {
						t.Fatal(err)
					}
					owant, oprof, err := opq.Exec(nil, arb.ExecOpts{Stats: true})
					if err != nil {
						t.Fatal(err)
					}
					if oprof.Version != 1 {
						t.Fatalf("read-only execution reports version %d, want 1", oprof.Version)
					}
					want := owant.Selected(opq.Queries()[0])
					sameSelected(t, fmt.Sprintf("%s at version %d, interpreter oracle", sources[i], sess.Version()), i, want, oracleSelected(otree, queries[i])[0])
					for _, opts := range []arb.ExecOpts{
						{Workers: 1, Stats: true},
						{Workers: 4, Stats: true},
						{NoPrune: true, Stats: true},
					} {
						res, prof, err := pq.Exec(nil, opts)
						if err != nil {
							t.Fatalf("%s at version %d: %v", sources[i], sess.Version(), err)
						}
						if got := res.Selected(pq.Queries()[0]); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s at version %d (%+v): selected %v, flat recreation %v",
								sources[i], sess.Version(), opts, got, want)
						}
						if prof.Version != sess.Version() {
							t.Fatalf("execution read version %d, store is at %d", prof.Version, sess.Version())
						}
					}
					if got := bres[i].Selected(batch.Queries(i)[0]); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s at version %d (batch): selected %v, flat recreation %v",
							sources[i], sess.Version(), got, want)
					}
				}
			}

			verify()
			serial := 0
			for step := 0; step < 24; step++ {
				frag, err := arb.ParseXML(strings.NewReader(randElemXML(r, &serial, 12)))
				if err != nil {
					t.Fatal(err)
				}
				op := arb.PatchOp{Tree: frag}
				switch r.Intn(3) {
				case 0:
					op.Op, op.Node = "replace", 1+r.Int63n(sess.Len()-1)
				case 1:
					if sess.Len() < 3 {
						continue
					}
					op.Op, op.Node, op.Tree = "delete", 1+r.Int63n(sess.Len()-1), nil
				case 2:
					op.Op, op.Node = "insert-child", r.Int63n(sess.Len())
				}
				info, err := sess.Patch(nil, op)
				if err != nil {
					t.Fatalf("step %d %s@%d: %v", step, op.Op, op.Node, err)
				}
				if info.Version != sess.Version() || info.Nodes != sess.Len() {
					t.Fatalf("step %d: patch reports version %d/%d nodes, session %d/%d",
						step, info.Version, info.Nodes, sess.Version(), sess.Len())
				}
				if step%6 == 5 {
					verify()
				}
				if step == 11 {
					if _, err := sess.Compact(nil); err != nil {
						t.Fatal(err)
					}
					verify()
				}
			}

			// Reopen from disk: OpenSession detects the manifest and comes
			// back versioned at the same version, answering identically.
			wantVersion, wantLen := sess.Version(), sess.Len()
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			sess, err = arb.OpenSession(base)
			if err != nil {
				t.Fatal(err)
			}
			if !sess.Versioned() {
				t.Fatal("reopened session lost its versioning")
			}
			if sess.Version() != wantVersion || sess.Len() != wantLen {
				t.Fatalf("reopened at version %d/%d nodes, want %d/%d",
					sess.Version(), sess.Len(), wantVersion, wantLen)
			}
			for i := range sources {
				if prepared[i], err = sess.PrepareXPath(queries[i]); err != nil {
					t.Fatal(err)
				}
			}
			if batch, err = sess.PrepareBatch(items...); err != nil {
				t.Fatal(err)
			}
			verify()
		})
	}
}

// TestPatchWithoutFragment: replace and insert-child splice a fragment in,
// so a patch that names neither is refused with an error — not a nil
// dereference in the store — and commits nothing.
func TestPatchWithoutFragment(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	db, _, err := arb.CreateDB(base, strings.NewReader("<a><b/><c/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenVersionedSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	v0 := sess.Version()
	for _, op := range []string{"replace", "insert-child"} {
		if _, err := sess.Patch(context.Background(), arb.PatchOp{Op: op, Node: 1}); err == nil || !strings.Contains(err.Error(), "needs a non-empty fragment") {
			t.Errorf("%s without a fragment: %v, want a needs-a-fragment error", op, err)
		}
	}
	if v := sess.Version(); v != v0 {
		t.Fatalf("refused patches moved the version from %d to %d", v0, v)
	}
}

// TestCreateOverPatchedDatabase: creating a database over the base of a
// patched one replaces it whole. The old manifest must not survive to
// describe the new records — whether the name count it declares differs
// from the new document's (the open would fail) or matches it (the open
// would read the old version's run table over the new records) — and
// neither may the old name table or segments.
func TestCreateOverPatchedDatabase(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ name, frag, second string }{
		// The first document names a, b and c; the first two patches add
		// no name, so the manifest declares the .lab's three names.
		{"fewer names", "<b><c/></b>", "<a><b/></a>"},
		{"as many names", "<b><c/></b>", "<x><y/><z/><y/></x>"},
		// A patch naming zz grows the store's own name table (.vlab).
		{"grown names", "<zz><zz/><b/></zz>", "<a><zz/><c><b/></c><b/><zz/></a>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "db")
			db, _, err := arb.CreateDB(base, strings.NewReader("<a><b/><c/></a>"))
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
			sess, err := arb.OpenVersionedSession(ctx, base)
			if err != nil {
				t.Fatal(err)
			}
			frag, err := arb.ParseXML(strings.NewReader(tc.frag))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Patch(ctx, arb.PatchOp{Op: "insert-child", Node: 0, Tree: frag}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			if db, _, err = arb.CreateDB(base, strings.NewReader(tc.second)); err != nil {
				t.Fatal(err)
			}
			db.Close()
			for _, pat := range []string{"db.arbm", "db.vlab", "db-*.seg"} {
				if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) > 0 {
					t.Errorf("re-created database keeps the patched one's %v", m)
				}
			}
			tr, err := arb.ParseXML(strings.NewReader(tc.second))
			if err != nil {
				t.Fatal(err)
			}
			oracle := arb.NewSession(tr)
			defer oracle.Close()
			sess, err = arb.OpenSession(base)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if sess.Versioned() || sess.Len() != oracle.Len() {
				t.Fatalf("re-created database opens versioned %v with %d nodes, want plain with %d",
					sess.Versioned(), sess.Len(), oracle.Len())
			}
			for _, expr := range []string{"//b", "//zz", "//c/b", "/a/*", "//y"} {
				if got, want := xpathIDs(t, sess, expr), xpathIDs(t, oracle, expr); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: ids %v, want %v", expr, got, want)
				}
			}
		})
	}
}

// xpathIDs runs a Core XPath query on sess and returns its selected ids.
func xpathIDs(t *testing.T, sess *arb.Session, expr string) []arb.NodeID {
	t.Helper()
	q, err := arb.ParseXPath(expr)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.PrepareXPath(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := pq.Exec(context.Background(), arb.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []arb.NodeID
	res.Walk(pq.Queries()[0], func(v arb.NodeID) bool {
		ids = append(ids, v)
		return true
	})
	return ids
}
