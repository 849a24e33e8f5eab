package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"arb/internal/tree"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(label uint16, hasFirst, hasSecond bool) bool {
		label &= labelMask
		r := Record{Label: label, HasFirst: hasFirst, HasSecond: hasSecond}
		return DecodeRecord(r.Encode()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLayoutPaperExample(t *testing.T) {
	// Section 5: two high bits are the child flags, the rest the label.
	r := Record{Label: 0x1234, HasFirst: true, HasSecond: false}
	if got := r.Encode(); got != 0x8000|0x1234 {
		t.Fatalf("encoded %04x", got)
	}
	r = Record{Label: 3, HasFirst: true, HasSecond: true}
	if got := r.Encode(); got != 0xC003 {
		t.Fatalf("encoded %04x", got)
	}
}

func TestFigure1TreeSerialisation(t *testing.T) {
	// The paper's Section 5 byte-layout example: Figure 1(b) serialises
	// as v1(1,1) v2(1,0) v4(0,0) v5(0,1) v6(0,0) v3(0,0), where (f,s)
	// are the child flags and nodes appear in preorder.
	tr := tree.New(nil)
	var l [7]tree.Label
	for i := 1; i <= 6; i++ {
		l[i] = tr.Names().MustIntern(fmt.Sprintf("l%d", i))
	}
	v1 := tr.AddNode(l[1])
	v2 := tr.AddNode(l[2])
	v4 := tr.AddNode(l[4])
	v5 := tr.AddNode(l[5])
	v6 := tr.AddNode(l[6])
	v3 := tr.AddNode(l[3])
	tr.SetFirst(v1, v2)
	tr.SetSecond(v1, v3)
	tr.SetFirst(v2, v4)
	tr.SetSecond(v2, v5)
	tr.SetFirst(v5, v6)
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}

	base := filepath.Join(t.TempDir(), "fig1")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	raw, err := os.ReadFile(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		label         tree.Label
		first, second bool
	}
	want := []rec{
		{l[1], true, true}, {l[2], true, true}, {l[4], false, false},
		{l[5], true, false}, {l[6], false, false}, {l[3], false, false},
	}
	if len(raw) != len(want)*NodeSize {
		t.Fatalf(".arb has %d bytes, want %d", len(raw), len(want)*NodeSize)
	}
	for i, w := range want {
		r := DecodeRecord(binary.BigEndian.Uint16(raw[2*i:]))
		if tree.Label(r.Label) != w.label || r.HasFirst != w.first || r.HasSecond != w.second {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestCreateRoundTrip(t *testing.T) {
	// Document events -> .arb, written forward as the events arrive ->
	// ReadTree must equal the tree built directly from the same events.
	feed := func(h tree.EventHandler) error {
		if err := h.Begin("a"); err != nil {
			return err
		}
		if err := h.Text([]byte("hi")); err != nil {
			return err
		}
		for _, tag := range []string{"b", "c"} {
			if err := h.Begin(tag); err != nil {
				return err
			}
			if err := h.End(); err != nil {
				return err
			}
		}
		return h.End()
	}
	base := filepath.Join(t.TempDir(), "db")
	db, stats, err := Create(base, func(ew *EventWriter) error { return feed(ew) }, CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if stats.ElemNodes != 3 || stats.CharNodes != 2 {
		t.Fatalf("stats %+v", stats)
	}
	got, err := db.ReadTree(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := tree.NewBuilder(nil)
	if err := feed(b); err != nil {
		t.Fatal(err)
	}
	want, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("round trip:\n got %s\nwant %s", got, want)
	}
	// Creation makes no scratch file: only the database's own files are
	// there.
	left, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if name := f.Name(); name != "db.arb" && name != "db.lab" && name != "db.idx" {
			t.Errorf("creation left %s behind", name)
		}
	}
}

// TestCreateOverExistingRebuildsIndex recreates a database in place with
// the same shape and node count but other labels: the new base.idx must
// describe the new records, not be the old sidecar loaded back.
func TestCreateOverExistingRebuildsIndex(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	for _, tags := range [][]string{{"a"}, {"c", "d"}} {
		names := tree.NewNames()
		db, err := CreateBinary(base, names, FullBinary(names, 8, tags...))
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildIndex(context.Background(), db, 0)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		got, err := ReadIndexFile(base + ".idx")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Entries(), want.Entries()) {
			t.Fatalf("tags %v: base.idx does not describe the created records", tags)
		}
	}
}

func TestCreateErrors(t *testing.T) {
	cases := map[string]func(*EventWriter) error{
		"empty":      func(ew *EventWriter) error { return nil },
		"unbalanced": func(ew *EventWriter) error { return ew.Begin("a") },
		"feed-error": func(ew *EventWriter) error {
			if err := ew.Begin("a"); err != nil {
				return err
			}
			return fmt.Errorf("the parser failed")
		},
		"extra-end": func(ew *EventWriter) error {
			if err := ew.Begin("a"); err != nil {
				return err
			}
			if err := ew.End(); err != nil {
				return err
			}
			return ew.End()
		},
		"two-roots": func(ew *EventWriter) error {
			for _, tag := range []string{"a", "b"} {
				if err := ew.Begin(tag); err != nil {
					return err
				}
				if err := ew.End(); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, feed := range cases {
		assertCreateFails(t, name, func(base string) error {
			db, _, err := Create(base, feed, CreateOpts{})
			if err == nil {
				db.Close()
			}
			return err
		})
	}
	// A second root fails at its Begin, as it does in tree.Builder.
	_, _, err := Create(filepath.Join(t.TempDir(), "db"), cases["two-roots"], CreateOpts{})
	if !errors.Is(err, tree.ErrContentAfterRoot) {
		t.Errorf("two roots: Create returned %v, want tree.ErrContentAfterRoot", err)
	}
}

// assertCreateFails runs a creation that must fail twice: into an empty
// directory, which it must leave empty, and over an existing database,
// whose .arb, .lab and .idx it must leave byte-identical and answering.
func assertCreateFails(t *testing.T, label string, create func(base string) error) {
	t.Helper()
	dir := t.TempDir()
	if create(filepath.Join(dir, "db")) == nil {
		t.Errorf("%s: creation succeeded, want error", label)
	}
	assertEmptyDir(t, dir, label)

	base := filepath.Join(t.TempDir(), "db")
	tr := randomDoc(rand.New(rand.NewSource(1)), 200)
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	exts := []string{".arb", ".lab", ".idx"}
	var before [][]byte
	for _, ext := range exts {
		b, err := os.ReadFile(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, b)
	}
	if create(base) == nil {
		t.Errorf("%s: creation over a database succeeded, want error", label)
		return
	}
	left, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(exts) {
		t.Errorf("%s: a failed creation over a database left %d files, want %d", label, len(left), len(exts))
	}
	for i, ext := range exts {
		b, err := os.ReadFile(base + ext)
		if err != nil || !bytes.Equal(b, before[i]) {
			t.Errorf("%s: a failed creation changed the database's %s (%v)", label, ext, err)
		}
	}
	db, err = Open(base)
	if err != nil {
		t.Fatalf("%s: the database a failed creation left does not open: %v", label, err)
	}
	defer db.Close()
	got, err := db.ReadTree(context.Background())
	if err != nil || got.String() != tr.String() {
		t.Errorf("%s: the database a failed creation left does not answer as before (%v)", label, err)
	}
}

// writeBareArb writes raw as base.arb, beside an empty base.lab: a
// database of unnamed labels.
func writeBareArb(t *testing.T, base string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(base+".arb", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base+".lab", nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertEmptyDir fails if a failed creation left any file in dir.
func assertEmptyDir(t *testing.T, dir, label string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("%s: failed creation left %s behind", label, f.Name())
	}
}

func TestBackwardReaderAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 70000} {
		data := make([]byte, 2*n)
		rng.Read(data)
		f, err := os.CreateTemp(t.TempDir(), "back")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		br, err := NewBackwardReader(f, int64(len(data)), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := n - 1; i >= 0; i-- {
			b, err := br.Next()
			if err != nil {
				t.Fatalf("n=%d unit %d: %v", n, i, err)
			}
			if !bytes.Equal(b, data[2*i:2*i+2]) {
				t.Fatalf("n=%d unit %d: got %x want %x", n, i, b, data[2*i:2*i+2])
			}
		}
		if _, err := br.Next(); err == nil {
			t.Fatalf("n=%d: read past the beginning", n)
		}
		f.Close()
	}
}

// TestScansAgreeWithTree checks both scan orders against the in-memory
// tree on random inputs, including Proposition 5.1's stack bound.
func TestScansAgreeWithTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		tr := randomDoc(rng, 200)
		base := filepath.Join(t.TempDir(), "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		docDepth := int(slices.Max(tr.DocDepth()))

		// Top-down: records must arrive in preorder with correct parents.
		type info struct{ v int64 }
		var visited []int64
		stats, err := ScanTopDown(context.Background(), db, func(v int64, rec Record, parent *info, k int) (info, error) {
			visited = append(visited, v)
			if tree.Label(rec.Label) != tr.Label(tree.NodeID(v)) {
				return info{}, fmt.Errorf("label mismatch at %d", v)
			}
			if parent != nil {
				p := tree.NodeID(parent.v)
				var c tree.NodeID
				if k == 1 {
					c = tr.First(p)
				} else {
					c = tr.Second(p)
				}
				if c != tree.NodeID(v) {
					return info{}, fmt.Errorf("node %d is not child %d of %d", v, k, p)
				}
			}
			return info{v}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(visited) != tr.Len() || stats.MaxStack > docDepth {
			t.Fatalf("visited %d nodes (want %d), stack %d (doc depth %d)",
				len(visited), tr.Len(), stats.MaxStack, docDepth)
		}
		for i, v := range visited {
			if int64(i) != v {
				t.Fatalf("not preorder at %d: %d", i, v)
			}
		}

		// Bottom-up: fold subtree sizes.
		size, stats2, err := FoldBottomUp(context.Background(), db, func(first, second *int64, rec Record, v int64) int64 {
			s := int64(1)
			if first != nil {
				s += *first
			}
			if second != nil {
				s += *second
			}
			return s
		})
		if err != nil {
			t.Fatal(err)
		}
		if size != int64(tr.Len()) {
			t.Fatalf("folded size %d, want %d", size, tr.Len())
		}
		if stats2.MaxStack > docDepth+1 {
			t.Fatalf("bottom-up stack %d for doc depth %d", stats2.MaxStack, docDepth)
		}
		db.Close()
	}
}

// randomDoc builds a random document tree (as opposed to an arbitrary
// binary tree) so document-depth bounds are meaningful.
func randomDoc(rng *rand.Rand, maxNodes int) *tree.Tree {
	b := tree.NewBuilder(nil)
	budget := 1 + rng.Intn(maxNodes)
	var gen func(depth int)
	gen = func(depth int) {
		budget--
		must(b.Begin([]string{"a", "b", "c"}[rng.Intn(3)]))
		for budget > 0 && depth < 10 && rng.Intn(3) > 0 {
			if rng.Intn(5) == 0 {
				budget--
				must(b.Text([]byte{'x'}))
			} else {
				gen(depth + 1)
			}
		}
		must(b.End())
	}
	gen(0)
	t, err := b.Tree()
	if err != nil {
		panic(err)
	}
	return t
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestMalformedArbRejected(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// Every record walk rejects records that are not one binary tree in
	// preorder with ErrMalformed, and accepts a root whose second subtree
	// is present.
	callers := map[string]func(db *DB) error{
		"ScanTopDown": func(db *DB) error {
			_, err := ScanTopDown(ctx, db, func(v int64, rec Record, parent *int, k int) (int, error) { return 0, nil })
			return err
		},
		"FoldBottomUp": func(db *DB) error {
			_, _, err := FoldBottomUp(ctx, db, func(first, second *int, rec Record, v int64) int { return 0 })
			return err
		},
		"EmitXMLContext": func(db *DB) error { return EmitXMLContext(ctx, db, io.Discard, nil) },
		"BuildIndex": func(db *DB) error {
			_, err := BuildIndex(ctx, db, 0)
			return err
		},
		"ReadTree": func(db *DB) error {
			_, err := db.ReadTree(ctx)
			return err
		},
	}
	for i, shape := range []struct {
		name string
		recs []Record
		ok   bool
	}{
		{"truncated", []Record{{Label: 300, HasFirst: true}}, false},
		{"second subtree missing at end", []Record{{Label: 300, HasFirst: true}, {Label: 301, HasSecond: true}}, false},
		{"lone root announcing a second subtree", []Record{{Label: 300, HasSecond: true}}, false},
		{"records after the root's subtree", []Record{{Label: 300}, {Label: 301}}, false},
		{"root with its second subtree", []Record{{Label: 300, HasSecond: true}, {Label: 301}}, true},
	} {
		raw := make([]byte, len(shape.recs)*NodeSize)
		for i, r := range shape.recs {
			binary.BigEndian.PutUint16(raw[i*NodeSize:], r.Encode())
		}
		base := filepath.Join(dir, fmt.Sprintf("shape%d", i))
		writeBareArb(t, base, raw)
		db, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		for name, walk := range callers {
			err := walk(db)
			if shape.ok && err != nil {
				t.Errorf("%s: %s: %v", shape.name, name, err)
			}
			if !shape.ok && !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: %s returned %v, want ErrMalformed", shape.name, name, err)
			}
		}
		db.Close()
	}

	// Odd file size.
	base := filepath.Join(dir, "bad")
	writeBareArb(t, base+"2", []byte{1, 2, 3})
	if _, err := Open(base + "2"); err == nil {
		t.Fatal("Open accepted an odd-sized .arb")
	}
}

func TestCreateBinaryValidation(t *testing.T) {
	dir := t.TempDir()
	bad := map[string]func(emit RecordSink) error{
		"empty": func(emit RecordSink) error { return nil },
		"incomplete": func(emit RecordSink) error {
			return emit(300, true, false) // announces a child that never comes
		},
		"second-tree": func(emit RecordSink) error {
			if err := emit(300, false, false); err != nil {
				return err
			}
			return emit(300, false, false)
		},
		"label-overflow": func(emit RecordSink) error {
			return emit(tree.Label(labelMask+1), false, false)
		},
	}
	for name, feed := range bad {
		assertCreateFails(t, name, func(base string) error {
			db, err := CreateBinary(base, tree.NewNames(), feed)
			if err == nil {
				db.Close()
			}
			return err
		})
	}

	// The full binary feed writes the same .arb and .lab bytes as
	// CreateFromTree of the same tree built in memory.
	const depth = 5
	tags := []string{"a", "b", "c"}
	tr := tree.New(nil)
	var build func(d int) tree.NodeID
	build = func(d int) tree.NodeID {
		v := tr.AddNode(tr.Names().MustIntern(tags[d%len(tags)]))
		if d < depth {
			tr.SetFirst(v, build(d+1))
			tr.SetSecond(v, build(d+1))
		}
		return v
	}
	build(0)
	names := tree.NewNames()
	fb, err := CreateBinary(filepath.Join(dir, "feed"), names, FullBinary(names, depth, tags...))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	ft, err := CreateFromTree(filepath.Join(dir, "tree"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	if fb.N != 1<<(depth+1)-1 {
		t.Fatalf("full binary tree of depth %d has %d nodes", depth, fb.N)
	}
	for _, ext := range []string{".arb", ".lab"} {
		got, err := os.ReadFile(filepath.Join(dir, "feed"+ext))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, "tree"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the full binary feed wrote %d bytes that differ from CreateFromTree's %d", ext, len(got), len(want))
		}
	}
}

func TestEmitXMLEscaping(t *testing.T) {
	tr := tree.New(nil)
	a := tr.Names().MustIntern("a")
	root := tr.AddNode(a)
	prev := tree.None
	for _, c := range []byte("<&>\"x") {
		n := tr.AddNode(tree.Label(c))
		if prev == tree.None {
			tr.SetFirst(root, n)
		} else {
			tr.SetSecond(prev, n)
		}
		prev = n
	}
	base := filepath.Join(t.TempDir(), "esc")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	if err := EmitXMLContext(context.Background(), db, &buf, nil); err != nil {
		t.Fatal(err)
	}
	want := "<a>&lt;&amp;&gt;&quot;x</a>"
	if got := buf.String(); got != want {
		t.Fatalf("EmitXML = %q, want %q", got, want)
	}
}

func TestEmitXMLSelection(t *testing.T) {
	tr := tree.New(nil)
	a := tr.Names().MustIntern("a")
	b := tr.Names().MustIntern("b")
	root := tr.AddNode(a)
	c1 := tr.AddNode(b)
	c2 := tr.AddNode(b)
	tr.SetFirst(root, c1)
	tr.SetSecond(c1, c2)
	base := filepath.Join(t.TempDir(), "sel")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	if err := EmitXMLContext(context.Background(), db, &buf, func(v int64) bool { return v == 2 }); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got != `<a><b/><b arb:selected="true"/></a>` {
		t.Fatalf("EmitXML = %q", got)
	}
}

// TestRoundTripProperty is the storage round-trip as a testing/quick
// property: any document tree survives tree -> .arb -> tree unchanged.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	i := 0
	f := func(seed int64) bool {
		i++
		tr := randomDoc(rand.New(rand.NewSource(seed)), 120)
		base := filepath.Join(dir, fmt.Sprintf("db%d", i))
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Logf("CreateFromTree: %v", err)
			return false
		}
		defer db.Close()
		got, err := db.ReadTree(context.Background())
		if err != nil {
			t.Logf("ReadTree: %v", err)
			return false
		}
		if got.String() != tr.String() {
			return false
		}
		// The same document fed as events writes the same records.
		ev, _, err := Create(base+"ev", func(ew *EventWriter) error { return feedTree(ew, tr, 0) }, CreateOpts{})
		if err != nil {
			t.Logf("Create: %v", err)
			return false
		}
		ev.Close()
		return sameFiles(t, base+"ev", base, ".arb", ".lab")
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// feedTree feeds the document whose binary encoding is rooted at v — v,
// then its second subtree, the following siblings — as events to h.
func feedTree(h tree.EventHandler, t *tree.Tree, v tree.NodeID) error {
	for ; v != tree.None; v = t.Second(v) {
		l := t.Label(v)
		if l.IsChar() {
			if err := h.Text([]byte{l.Char()}); err != nil {
				return err
			}
			continue
		}
		name, _ := t.Names().TagName(l)
		if err := h.Begin(name); err != nil {
			return err
		}
		if err := feedTree(h, t, t.First(v)); err != nil {
			return err
		}
		if err := h.End(); err != nil {
			return err
		}
	}
	return nil
}

// sameFiles reports whether databases a and b have byte-identical files
// of the given extensions, logging the first that differs.
func sameFiles(t *testing.T, a, b string, exts ...string) bool {
	t.Helper()
	for _, ext := range exts {
		x, err := os.ReadFile(a + ext)
		if err != nil {
			t.Log(err)
			return false
		}
		y, err := os.ReadFile(b + ext)
		if err != nil {
			t.Log(err)
			return false
		}
		if !bytes.Equal(x, y) {
			t.Logf("%s: %s and %s differ", ext, a, b)
			return false
		}
	}
	return true
}

// TestCreateLargerThanBuffers feeds documents whose records span several
// write buffers, so the forward writer sets flags both in its buffer and
// through WriteAt on records already flushed, and checks every byte
// against CreateFromTree of the same document built in memory.
func TestCreateLargerThanBuffers(t *testing.T) {
	bufRecs := defaultBufSize / NodeSize
	docs := map[string]func(h tree.EventHandler) error{
		// A root with 310 000 children of mixed subtree sizes: mostly
		// leaves and small elements, and every 100 000th child a subtree
		// bigger than a buffer, whose next sibling's has-second flag
		// lands on a flushed record.
		"wide": func(h tree.EventHandler) error {
			must(h.Begin("root"))
			for i := 0; i < 310_000; i++ {
				switch {
				case i%100_000 == 1:
					must(h.Begin("big"))
					for j := 0; j < bufRecs+1000; j++ {
						must(h.Begin("leaf"))
						must(h.End())
					}
					must(h.End())
				case i%7 == 0:
					must(h.Text([]byte("xy")))
				case i%3 == 0:
					must(h.Begin("small"))
					must(h.Text([]byte("z")))
					must(h.Begin("leaf"))
					must(h.End())
					must(h.End())
				default:
					must(h.Begin("leaf"))
					must(h.End())
				}
			}
			return h.End()
		},
		// A chain 100 000 deep whose every link but the root is followed
		// by two characters: unwinding sets each link's has-second flag
		// long after the link was flushed.
		"deep": func(h tree.EventHandler) error {
			const depth = 100_000
			for i := 0; i < depth; i++ {
				must(h.Begin("link"))
			}
			for i := 0; i < depth; i++ {
				must(h.End())
				if i < depth-1 {
					must(h.Text([]byte("ab")))
				}
			}
			return nil
		},
	}
	for name, doc := range docs {
		b := tree.NewBuilder(nil)
		if err := doc(b); err != nil {
			t.Fatal(err)
		}
		tr, err := b.Tree()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() <= 2*bufRecs {
			t.Fatalf("%s: %d nodes fit in two write buffers", name, tr.Len())
		}
		dir := t.TempDir()
		want, err := CreateFromTree(filepath.Join(dir, "tree"), tr)
		if err != nil {
			t.Fatal(err)
		}
		want.Close()
		got, _, err := Create(filepath.Join(dir, "events"), func(ew *EventWriter) error { return doc(ew) }, CreateOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Close()
		if !sameFiles(t, filepath.Join(dir, "events"), filepath.Join(dir, "tree"), ".arb", ".lab", ".idx") {
			t.Errorf("%s: Create wrote other files than CreateFromTree", name)
		}
	}
}
