package vstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/tree"
)

// ---------------------------------------------------------------------
// Independent oracle: the document as a flat record slice, patched by
// straightforward splicing with none of the store's run-table or index
// machinery. Labels are kept symbolically (tag name or char) so the
// oracle does not have to replicate the store's interning order.

type orec struct {
	name      string // tag name; empty for char labels
	char      uint16 // char label when name == ""
	hasFirst  bool
	hasSecond bool
}

func (r orec) label(names *tree.Names) (uint16, error) {
	if r.name == "" {
		return r.char, nil
	}
	l, ok := names.Lookup(r.name)
	if !ok {
		return 0, fmt.Errorf("tag %q not interned", r.name)
	}
	return uint16(l), nil
}

// oXMLEnd returns the end of the XML subtree at v (node + first
// subtree) by a pending-counter scan over the slice.
func oXMLEnd(recs []orec, v int64) int64 {
	if !recs[v].hasFirst {
		return v + 1
	}
	pending := int64(1)
	pos := v + 1
	for pending > 0 {
		r := recs[pos]
		pending--
		if r.hasFirst {
			pending++
		}
		if r.hasSecond {
			pending++
		}
		pos++
	}
	return pos
}

// oParent finds the binary parent of v and the child position (1 or 2)
// by a forward walk maintaining the pending-edge stack.
func oParent(recs []orec, v int64) (int64, int) {
	type edge struct {
		p int64
		k int
	}
	var stack []edge
	cur := edge{-1, 0}
	for u := int64(0); ; u++ {
		if u == v {
			return cur.p, cur.k
		}
		r := recs[u]
		if r.hasSecond {
			stack = append(stack, edge{u, 2})
		}
		if r.hasFirst {
			cur = edge{u, 1}
		} else if len(stack) > 0 {
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		} else {
			panic("oParent: walked off the document")
		}
	}
}

func osplice(recs []orec, start, end int64, frag []orec) []orec {
	out := make([]orec, 0, int64(len(recs))-(end-start)+int64(len(frag)))
	out = append(out, recs[:start]...)
	out = append(out, frag...)
	out = append(out, recs[end:]...)
	return out
}

func oReplace(recs []orec, v int64, frag []orec) []orec {
	end := oXMLEnd(recs, v)
	f := append([]orec(nil), frag...)
	f[0].hasSecond = recs[v].hasSecond
	return osplice(recs, v, end, f)
}

func oDelete(recs []orec, v int64) []orec {
	end := oXMLEnd(recs, v)
	out := append([]orec(nil), recs...)
	if !recs[v].hasSecond {
		p, k := oParent(recs, v)
		if k == 1 {
			out[p].hasFirst = false
		} else {
			out[p].hasSecond = false
		}
	}
	return osplice(out, v, end, nil)
}

func oInsert(recs []orec, p int64, frag []orec) []orec {
	f := append([]orec(nil), frag...)
	f[0].hasSecond = recs[p].hasFirst
	out := append([]orec(nil), recs...)
	out[p].hasFirst = true
	return osplice(out, p+1, p+1, f)
}

// oFromTree flattens a preorder tree into oracle records.
func oFromTree(t *tree.Tree) []orec {
	out := make([]orec, t.Len())
	for v := 0; v < t.Len(); v++ {
		id := tree.NodeID(v)
		l := t.Label(id)
		r := orec{hasFirst: t.HasFirst(id), hasSecond: t.HasSecond(id)}
		if l.IsChar() {
			r.char = uint16(l)
		} else {
			name, ok := t.Names().TagName(l)
			if !ok {
				panic("unnamed label in test tree")
			}
			r.name = name
		}
		out[v] = r
	}
	return out
}

// checkVersion compares a snapshot's full record stream against the
// oracle and audits every index entry against independently folded
// subtree sizes and signatures.
func checkVersion(t *testing.T, snap *Snapshot, recs []orec) {
	t.Helper()
	n := int64(len(recs))
	if snap.Nodes() != n {
		t.Fatalf("version %d: %d nodes, oracle has %d", snap.Version(), snap.Nodes(), n)
	}
	buf := make([]byte, n*storage.NodeSize)
	if _, err := snap.v.src.ReadAt(buf, 0); err != nil {
		t.Fatalf("version %d: read: %v", snap.Version(), err)
	}
	for v := int64(0); v < n; v++ {
		got := storage.DecodeRecord(binary.BigEndian.Uint16(buf[v*storage.NodeSize:]))
		want, err := recs[v].label(snap.Names())
		if err != nil {
			t.Fatalf("version %d node %d: %v", snap.Version(), v, err)
		}
		if got.Label != want || got.HasFirst != recs[v].hasFirst || got.HasSecond != recs[v].hasSecond {
			t.Fatalf("version %d node %d: got %+v, want label=%d first=%v second=%v",
				snap.Version(), v, got, want, recs[v].hasFirst, recs[v].hasSecond)
		}
	}

	// Audit the index: fold sizes/first-sizes/signatures bottom-up.
	size := make([]int64, n)
	firstSize := make([]int64, n)
	sigs := make([]storage.LabelSig, n)
	var fold []int64 // stack of subtree roots
	for v := n - 1; v >= 0; v-- {
		sz := int64(1)
		var sig storage.LabelSig
		l, _ := recs[v].label(snap.Names())
		sig.Add(l)
		if recs[v].hasFirst {
			c := fold[len(fold)-1]
			fold = fold[:len(fold)-1]
			sz += size[c]
			firstSize[v] = size[c]
			sig.Or(sigs[c])
		}
		if recs[v].hasSecond {
			c := fold[len(fold)-1]
			fold = fold[:len(fold)-1]
			sz += size[c]
			sig.Or(sigs[c])
		}
		size[v] = sz
		sigs[v] = sig
		fold = append(fold, v)
	}
	if len(fold) != 1 || size[0] != n {
		t.Fatalf("version %d: oracle document is not a well-formed tree", snap.Version())
	}
	for _, e := range snap.v.idx.Entries() {
		if e.Size != size[e.V] || e.FirstSize != firstSize[e.V] {
			t.Fatalf("version %d: entry at %d has Size=%d FirstSize=%d, actual %d/%d",
				snap.Version(), e.V, e.Size, e.FirstSize, size[e.V], firstSize[e.V])
		}
		if l, _ := recs[e.V].label(snap.Names()); e.Label != l {
			t.Fatalf("version %d: entry at %d has label %d, the node %d", snap.Version(), e.V, e.Label, l)
		}
		for i := range sigs[e.V] {
			if sigs[e.V][i]&^e.Labels[i] != 0 {
				t.Fatalf("version %d: entry at %d label signature is not a superset of the subtree's",
					snap.Version(), e.V)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Random document / fragment generators (preorder ids by construction).

func randDoc(r *rand.Rand, names *tree.Names, n int) *tree.Tree {
	t := tree.New(names)
	budget := n - 1
	randSubtree(t, r, &budget, 0, false)
	return t
}

// chainDoc is a document of at least n nodes: a root whose children are
// randDoc-shaped subtrees, added until the document is large enough.
func chainDoc(r *rand.Rand, names *tree.Names, n int) *tree.Tree {
	t := tree.New(names)
	budget := n // never spent before the document holds n nodes
	root := t.AddNode(tree.Label(names.MustIntern(fmt.Sprintf("t%d", r.Intn(8)))))
	for prev := tree.None; t.Len() < n; {
		c := randSubtree(t, r, &budget, 1, false)
		if prev == tree.None {
			t.SetFirst(root, c)
		} else {
			t.SetSecond(prev, c)
		}
		prev = c
	}
	return t
}

// randSubtree appends a random subtree at depth to t in preorder, each
// child spending one of *budget, and returns its root.
func randSubtree(t *tree.Tree, r *rand.Rand, budget *int, depth int, allowSecond bool) tree.NodeID {
	v := t.AddNode(tree.Label(t.Names().MustIntern(fmt.Sprintf("t%d", r.Intn(8)))))
	if *budget > 0 && depth < 12 && r.Intn(3) > 0 {
		*budget--
		if r.Intn(4) == 0 { // text child (char label, always a leaf)
			t.SetFirst(v, t.AddNode(tree.Label('a'+r.Intn(26))))
		} else {
			t.SetFirst(v, randSubtree(t, r, budget, depth+1, true))
		}
	}
	if allowSecond && *budget > 0 && r.Intn(3) > 0 {
		*budget--
		t.SetSecond(v, randSubtree(t, r, budget, depth, true))
	}
	return v
}

func randFragment(r *rand.Rand, serial *int, maxNodes int) *tree.Tree {
	names := tree.NewNames()
	t := tree.New(names)
	budget := r.Intn(maxNodes)
	tag := func() tree.Label {
		if r.Intn(8) == 0 { // occasionally a brand-new tag to grow the store's table
			*serial++
			return names.MustIntern(fmt.Sprintf("new%d", *serial))
		}
		return names.MustIntern(fmt.Sprintf("t%d", r.Intn(8)))
	}
	var gen func(depth int, allowSecond bool) tree.NodeID
	gen = func(depth int, allowSecond bool) tree.NodeID {
		v := t.AddNode(tag())
		if budget > 0 && depth < 8 && r.Intn(2) == 0 {
			budget--
			t.SetFirst(v, gen(depth+1, true))
		}
		if allowSecond && budget > 0 && r.Intn(2) == 0 {
			budget--
			t.SetSecond(v, gen(depth, true))
		}
		return v
	}
	gen(0, false)
	return t
}

func createStore(t *testing.T, doc *tree.Tree) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	db, err := storage.CreateFromTree(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	return st, base
}

// ---------------------------------------------------------------------

// TestPatchDifferentialOracle drives a long random patch sequence
// against the flat-splice oracle: after every operation the committed
// version's record stream must match byte-for-byte and every index
// entry must describe a true extent. Periodically the store is
// reopened from disk (crash-recovery equivalence) and compacted.
func TestPatchDifferentialOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			doc := randDoc(r, tree.NewNames(), 200)
			st, base := createStore(t, doc)
			defer func() { st.Close() }()
			recs := oFromTree(doc)
			serial := 0

			snap := st.Snapshot()
			checkVersion(t, snap, recs)
			snap.Release()

			for step := 0; step < 120; step++ {
				n := int64(len(recs))
				v := r.Int63n(n)
				switch r.Intn(3) {
				case 0: // replace
					frag := randFragment(r, &serial, 20)
					if _, err := st.ReplaceSubtree(ctx, v, frag); err != nil {
						t.Fatalf("step %d: replace %d: %v", step, v, err)
					}
					recs = oReplace(recs, v, oFromTree(frag))
				case 1: // delete
					if v == 0 {
						continue
					}
					if oXMLEnd(recs, v)-v >= n {
						continue // would empty the document
					}
					if _, err := st.DeleteSubtree(ctx, v); err != nil {
						t.Fatalf("step %d: delete %d: %v", step, v, err)
					}
					recs = oDelete(recs, v)
				case 2: // insert
					if recs[v].name == "" {
						if _, err := st.InsertChild(ctx, v, randFragment(r, &serial, 5)); err == nil {
							t.Fatalf("step %d: insert under text node %d accepted", step, v)
						}
						continue
					}
					frag := randFragment(r, &serial, 20)
					if _, err := st.InsertChild(ctx, v, frag); err != nil {
						t.Fatalf("step %d: insert under %d: %v", step, v, err)
					}
					recs = oInsert(recs, v, oFromTree(frag))
				}
				snap := st.Snapshot()
				checkVersion(t, snap, recs)
				snap.Release()

				switch step % 40 {
				case 17: // crash-recovery equivalence: reopen from disk
					ver := st.Version()
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					st2, err := Open(ctx, base)
					if err != nil {
						t.Fatalf("step %d: reopen: %v", step, err)
					}
					st = st2 // continue the loop on the reopened store
					if st.Version() != ver {
						t.Fatalf("step %d: reopened at version %d, want %d", step, st.Version(), ver)
					}
					snap := st.Snapshot()
					checkVersion(t, snap, recs)
					snap.Release()
				case 33: // compact and re-verify
					if _, err := st.Compact(ctx); err != nil {
						t.Fatalf("step %d: compact: %v", step, err)
					}
					snap := st.Snapshot()
					checkVersion(t, snap, recs)
					snap.Release()
				}
			}
		})
	}

	// A document too large for the index to cover: the patch walks step
	// records and jump nested extents both. Targets are nodes inside
	// extents nested in others whose walks jump an extent, as first and as
	// second children, and the last node.
	t.Run("nested", func(t *testing.T) {
		r := rand.New(rand.NewSource(5))
		doc := chainDoc(r, tree.NewNames(), 20000)
		st, _ := createStore(t, doc)
		defer st.Close()
		recs := oFromTree(doc)
		serial := 0
		for step := 0; step < 48; step++ {
			del := step%2 == 1
			snap := st.Snapshot()
			firsts, seconds := nestedTargets(snap.v.idx.Entries(), recs, del)
			snap.Release()
			if len(firsts) == 0 || len(seconds) == 0 {
				t.Fatalf("step %d: %d first and %d second children inside nested extents", step, len(firsts), len(seconds))
			}
			var v int64
			switch step % 3 {
			case 0:
				v = firsts[r.Intn(len(firsts))]
			case 1:
				v = seconds[r.Intn(len(seconds))]
			case 2:
				v = int64(len(recs)) - 1
			}
			if !del {
				frag := randFragment(r, &serial, 20)
				if _, err := st.ReplaceSubtree(ctx, v, frag); err != nil {
					t.Fatalf("step %d: replace %d: %v", step, v, err)
				}
				recs = oReplace(recs, v, oFromTree(frag))
			} else {
				if _, err := st.DeleteSubtree(ctx, v); err != nil {
					t.Fatalf("step %d: delete %d: %v", step, v, err)
				}
				recs = oDelete(recs, v)
			}
			snap = st.Snapshot()
			checkVersion(t, snap, recs)
			snap.Release()
		}
	})
}

// nestedTargets returns the nodes inside index extents nested in another
// extent whose patch walk jumps an indexed subtree, split into first and
// second children. For a replace that is xmlEnd's walk: nodes whose first
// child roots an extent. For a delete it is parentOf's: second children
// without a second child of their own that directly follow an extent, and
// first children without one.
func nestedTargets(entries []storage.IndexEntry, recs []orec, del bool) (firsts, seconds []int64) {
	n := int64(len(recs))
	cover := make([]int, n+1) // cover[v]: the extents holding v below their root
	roots, ends := make(map[int64]bool), make(map[int64]bool)
	for _, e := range entries {
		cover[e.V+1]++
		cover[e.V+e.Size]--
		roots[e.V], ends[e.V+e.Size] = true, true
	}
	for v := int64(1); v < n; v++ {
		cover[v] += cover[v-1]
		jumps := recs[v].hasFirst && roots[v+1]
		if del {
			// A first child's parent is the node before it: no walk.
			jumps = !recs[v].hasSecond && (recs[v-1].hasFirst || ends[v])
		}
		if cover[v] < 2 || !jumps {
			continue
		}
		if recs[v-1].hasFirst {
			firsts = append(firsts, v)
		} else {
			seconds = append(seconds, v)
		}
	}
	return firsts, seconds
}

// TestSnapshotIsolationAndGC pins a snapshot, patches past it, and
// verifies the pinned version stays bit-identical while patch segments
// are collected once the pin is released.
func TestSnapshotIsolationAndGC(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	doc := randDoc(r, tree.NewNames(), 150)
	st, base := createStore(t, doc)
	defer st.Close()
	recs := oFromTree(doc)
	serial := 0

	pinned := st.Snapshot()
	pinnedRecs := append([]orec(nil), recs...)

	for i := 0; i < 25; i++ {
		v := r.Int63n(int64(len(recs)))
		frag := randFragment(r, &serial, 15)
		if _, err := st.ReplaceSubtree(ctx, v, frag); err != nil {
			t.Fatal(err)
		}
		recs = oReplace(recs, v, oFromTree(frag))
	}
	checkVersion(t, pinned, pinnedRecs) // old version unchanged under churn
	cur := st.Snapshot()
	checkVersion(t, cur, recs)
	cur.Release()

	if got := st.Stats().LiveVersions; got < 2 {
		t.Fatalf("want >=2 live versions while pinned, got %d", got)
	}
	pinned.Release()
	pinned.Release() // idempotent

	// Compact: after it, only the base file and the compacted segment
	// should survive on disk.
	if _, err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Segments != 1 {
		t.Fatalf("after compact: %d open segments, want 1", stats.Segments)
	}
	segs, err := filepath.Glob(filepath.Join(filepath.Dir(base), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("after compact: %d .seg files on disk (%v), want 1", len(segs), segs)
	}
	if tmps, _ := filepath.Glob(filepath.Join(filepath.Dir(base), "*.tmp*")); len(tmps) != 0 {
		t.Fatalf("leaked temp files: %v", tmps)
	}
	snap := st.Snapshot()
	checkVersion(t, snap, recs)
	snap.Release()
}

// TestOpenSweepsStrayTemps plants what interrupted commits leave behind —
// a commit temporary of each of the base's files and a segment no manifest
// references — and reopens the store: every stray is gone, and every
// committed or referenced file holds the bytes it held, as does the
// segment of a database db-2 beside base db.
func TestOpenSweepsStrayTemps(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	doc := randDoc(r, tree.NewNames(), 80)
	st, base := createStore(t, doc)
	serial := 0
	frag := randFragment(r, &serial, 10)
	if _, err := st.ReplaceSubtree(ctx, 1, frag); err != nil {
		t.Fatal(err)
	}
	recs := oReplace(oFromTree(doc), 1, oFromTree(frag))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(base)
	files := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]string)
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[e.Name()] = string(b)
		}
		return m
	}
	if err := os.WriteFile(filepath.Join(dir, "db-2-000001.seg"), []byte("db-2's"), 0o644); err != nil {
		t.Fatal(err)
	}
	committed := files()
	for _, name := range []string{"db.arb.tmp11", "db.lab.tmp12", "db.idx.tmp13", "db.arbm.tmp14",
		"db.vlab.tmp15", "db-000099.seg.tmp16", "db-000098.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	after := files()
	for name := range after {
		if _, ok := committed[name]; !ok {
			t.Errorf("reopen left %s", name)
		}
	}
	for name, b := range committed {
		if after[name] != b {
			t.Errorf("reopen changed or removed %s", name)
		}
	}
	snap := st.Snapshot()
	defer snap.Release()
	checkVersion(t, snap, recs)
}

// TestVersionedDBRunsStrategies sanity-checks that a snapshot's virtual
// DB feeds the generic scan primitives (the full strategy matrix is
// exercised by the root-level differential test).
func TestVersionedDBRunsStrategies(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))
	doc := randDoc(r, tree.NewNames(), 300)
	st, _ := createStore(t, doc)
	defer st.Close()
	serial := 0
	for i := 0; i < 10; i++ {
		if _, err := st.ReplaceSubtree(ctx, r.Int63n(st.Nodes()), randFragment(r, &serial, 30)); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Snapshot()
	defer snap.Release()
	var count int64
	if _, err := storage.ScanTopDown(ctx, snap.DB(), func(v int64, rec storage.Record, p *struct{}, k int) (struct{}, error) {
		count++
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != snap.Nodes() {
		t.Fatalf("top-down scan visited %d nodes of %d", count, snap.Nodes())
	}
	tr, err := snap.DB().ReadTree(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tr.Len()) != snap.Nodes() {
		t.Fatalf("ReadTree got %d nodes, want %d", tr.Len(), snap.Nodes())
	}
}

// TestPatchErrors exercises the refusal paths.
func TestPatchErrors(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(3))
	doc := randDoc(r, tree.NewNames(), 50)
	st, _ := createStore(t, doc)
	defer st.Close()
	serial := 0
	frag := randFragment(r, &serial, 5)
	if _, err := st.DeleteSubtree(ctx, 0); err == nil {
		t.Fatal("deleting the root succeeded")
	}
	if _, err := st.ReplaceSubtree(ctx, st.Nodes(), frag); err == nil {
		t.Fatal("replacing past the end succeeded")
	}
	if _, err := st.ReplaceSubtree(ctx, -1, frag); err == nil {
		t.Fatal("replacing node -1 succeeded")
	}
	// A fragment whose root has a sibling is not a single subtree.
	bad := tree.New(tree.NewNames())
	a := bad.AddNode(bad.Names().MustIntern("a"))
	b := bad.AddNode(bad.Names().MustIntern("b"))
	bad.SetSecond(a, b)
	if _, err := st.ReplaceSubtree(ctx, 1, bad); err == nil {
		t.Fatal("fragment with sibling root accepted")
	}
	if _, err := st.ReplaceSubtree(ctx, 1, tree.New(tree.NewNames())); err == nil {
		t.Fatal("empty fragment accepted")
	}
}

// TestOpenPlainDatabaseNoManifest checks that bootstrapping a plain
// .arb leaves the directory untouched until the first patch commits, and
// that the patch leaves the original .arb's bytes as they were.
func TestOpenPlainDatabaseNoManifest(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	doc := randDoc(r, tree.NewNames(), 80)
	st, base := createStore(t, doc)
	if _, err := os.Stat(base + ".arbm"); !os.IsNotExist(err) {
		t.Fatalf("manifest exists before any patch (err=%v)", err)
	}
	orig, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	serial := 0
	if _, err := st.ReplaceSubtree(context.Background(), 1, randFragment(r, &serial, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base + ".arbm"); err != nil {
		t.Fatalf("manifest missing after patch: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The original .arb is never modified.
	after, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, orig) {
		t.Fatalf("the patch rewrote the original .arb: %d bytes, %d before", len(after), len(orig))
	}
}

// TestReadOnlyStore holds a read-only store to its contract: one version,
// 1, whose snapshots read the very database it wraps; every writer
// refused with ErrReadOnly, leaving no manifest; and Close closing the
// database only when the store owns it.
func TestReadOnlyStore(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	doc := randDoc(r, tree.NewNames(), 60)
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := ReadOnly(db, false)
	snap := st.Snapshot()
	defer snap.Release()
	if snap.DB() != db || snap.Version() != 1 || st.Version() != 1 || st.Nodes() != db.N || st.Names() != db.Names {
		t.Fatalf("read-only snapshot: db %p version %d (store %d), %d nodes; want db %p version 1, %d nodes",
			snap.DB(), snap.Version(), st.Version(), st.Nodes(), db, db.N)
	}
	if st.Writable() {
		t.Fatal("a read-only store reports itself writable")
	}
	ctx := context.Background()
	frag := randFragment(r, new(int), 3)
	for op, write := range map[string]func() (*PatchInfo, error){
		"ReplaceSubtree": func() (*PatchInfo, error) { return st.ReplaceSubtree(ctx, 1, frag) },
		"DeleteSubtree":  func() (*PatchInfo, error) { return st.DeleteSubtree(ctx, 1) },
		"InsertChild":    func() (*PatchInfo, error) { return st.InsertChild(ctx, 0, frag) },
		"Compact":        func() (*PatchInfo, error) { return st.Compact(ctx) },
	} {
		if _, err := write(); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on a read-only store: error %v, want ErrReadOnly", op, err)
		}
	}
	if _, err := os.Stat(base + ".arbm"); !os.IsNotExist(err) {
		t.Fatalf("a refused write left a manifest (err=%v)", err)
	}
	if s := st.Stats(); s.Snapshots != 1 || s.Segments != 1 || s.SegmentBytes != db.N*storage.NodeSize {
		t.Fatalf("stats %+v: want 1 snapshot and the database file as the one segment", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RecordAt(0); err != nil {
		t.Fatalf("closing a store that does not own its database closed it: %v", err)
	}
	if err := ReadOnly(db, true).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RecordAt(0); err == nil {
		t.Fatal("closing a store that owns its database left it open")
	}
}

// TestStoreRefcountsTrackPins pins snapshots across a patch sequence and
// releases them in random order, checking the store's guarded bookkeeping
// after every step: each live version's pins are the store's own (while
// current) plus its unreleased snapshots, each open segment's count is the
// live versions referencing it, and a patch segment no live version
// references is closed and gone from disk.
func TestStoreRefcountsTrackPins(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))
	st, _ := createStore(t, randDoc(r, tree.NewNames(), 120))
	defer st.Close()
	serial := 0
	var snaps []*Snapshot
	seen := map[*segment]bool{}
	check := func(step string) {
		t.Helper()
		st.state.Do(func(s *storeState) {
			want := map[*version]int{s.cur: 1}
			for _, sn := range snaps {
				want[sn.v]++
			}
			if len(s.vers) != len(want) || s.snapRefs != len(snaps) {
				t.Fatalf("%s: %d live versions and %d snapshot pins, want %d and %d", step, len(s.vers), s.snapRefs, len(want), len(snaps))
			}
			segRefs := map[*segment]int{}
			for v, pins := range want {
				if s.vers[v] != pins {
					t.Fatalf("%s: version %d has %d pins, want %d", step, v.id, s.vers[v], pins)
				}
				for _, sg := range v.segs {
					segRefs[sg]++
					seen[sg] = true
				}
			}
			if len(s.segs) != len(segRefs) {
				t.Fatalf("%s: %d open segments, want %d", step, len(s.segs), len(segRefs))
			}
			for sg, n := range segRefs {
				if s.segs[sg] != n {
					t.Fatalf("%s: segment %s has %d references, want %d", step, sg.name, s.segs[sg], n)
				}
			}
			for sg := range seen {
				if _, open := s.segs[sg]; open || sg.kind != segPatch {
					continue
				}
				if _, err := os.Stat(filepath.Join(st.dir, sg.name)); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("%s: collected patch segment %s is still on disk (%v)", step, sg.name, err)
				}
			}
		})
	}
	check("open")
	for i := 0; i < 12; i++ {
		if r.Intn(2) == 0 {
			snaps = append(snaps, st.Snapshot())
			check(fmt.Sprintf("pin %d", i))
		}
		v := r.Int63n(st.Stats().Nodes)
		if _, err := st.ReplaceSubtree(ctx, v, randFragment(r, &serial, 10)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("patch %d", i))
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots pinned; the sequence checks too little", len(snaps))
	}
	for len(snaps) > 0 {
		i := r.Intn(len(snaps))
		sn := snaps[i]
		snaps = append(snaps[:i], snaps[i+1:]...)
		sn.Release()
		check(fmt.Sprintf("release of version %d", sn.v.id))
	}
	if _, err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	check("compact")
}
