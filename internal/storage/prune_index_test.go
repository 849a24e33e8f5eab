package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"arb/internal/testutil"
	"arb/internal/tree"
)

// TestPruneIndexV2RoundTrip checks that label signatures and root labels
// survive the sidecar round trip and agree with a direct per-subtree
// recomputation.
func TestPruneIndexV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := testutil.RandomTree(rng, 400)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix, err := BuildIndex(context.Background(), db, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: every subtree's label signature computed directly.
	n := tr.Len()
	sigs := make([]LabelSig, n)
	for v := n - 1; v >= 0; v-- {
		sigs[v].Add(uint16(tr.Label(tree.NodeID(v))))
		if c := tr.First(tree.NodeID(v)); c != tree.None {
			sigs[v].Or(sigs[c])
		}
		if c := tr.Second(tree.NodeID(v)); c != tree.None {
			sigs[v].Or(sigs[c])
		}
	}
	for v := 0; v < n; v++ {
		e, ok := ix.Lookup(int64(v))
		if !ok {
			t.Fatalf("node %d missing from unlimited-budget index", v)
		}
		if e.Labels != sigs[v] {
			t.Fatalf("node %d label signature %v, want %v", v, e.Labels, sigs[v])
		}
		if want := (Record{Label: uint16(tr.Label(tree.NodeID(v))), HasFirst: tr.HasFirst(tree.NodeID(v)), HasSecond: tr.HasSecond(tree.NodeID(v))}); e.Record() != want {
			t.Fatalf("node %d entry record %+v, want %+v", v, e.Record(), want)
		}
	}

	path := filepath.Join(t.TempDir(), "x.idx")
	if err := WriteIndexFile(path, ix); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != ix.N || back.Len() != ix.Len() {
		t.Fatalf("round trip changed shape: %d/%d entries, %d/%d nodes", back.Len(), ix.Len(), back.N, ix.N)
	}
	for i, e := range back.Entries() {
		if e != ix.Entries()[i] {
			t.Fatalf("entry %d changed in round trip: %+v vs %+v", i, e, ix.Entries()[i])
		}
	}
}

// TestPruneStaleV1IndexRebuilt checks the v1-sidecar upgrade path: a
// stale v1 file is rejected by ReadIndexFile, transparently rebuilt by
// DB.Index, and the sidecar is replaced with a current (v3) file.
func TestPruneStaleV1IndexRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := testutil.RandomTree(rng, 300)
	base := filepath.Join(t.TempDir(), "db")
	created, err := CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	created.Close()
	// A fresh handle, so the index must come from the sidecar or a scan
	// (creation cached one in the old handle).
	db, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Fake a plausible v1 sidecar (old magic, three words per entry).
	var v1 bytes.Buffer
	v1.WriteString(indexMagicV1)
	put := func(x int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(x))
		v1.Write(b[:])
	}
	put(db.N)
	put(1)
	put(0)
	put(db.N)
	put(1)
	if err := os.WriteFile(base+".idx", v1.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndexFile(base + ".idx"); err == nil {
		t.Fatal("ReadIndexFile accepted a v1 sidecar")
	}

	ix, err := db.Index(context.Background(), 0)
	if err != nil {
		t.Fatalf("Index did not rebuild over the stale v1 sidecar: %v", err)
	}
	if ix.N != db.N || ix.Len() == 0 {
		t.Fatalf("rebuilt index is wrong: %d entries for %d nodes", ix.Len(), ix.N)
	}
	// The sidecar must now be a readable current file.
	back, err := ReadIndexFile(base + ".idx")
	if err != nil {
		t.Fatalf("sidecar was not refreshed to v3: %v", err)
	}
	if back.N != db.N {
		t.Fatalf("refreshed sidecar describes %d nodes, want %d", back.N, db.N)
	}
}

// TestPruneTreeIndexMatchesDiskIndex checks that the index of a tree's
// record image (OpenTree) agrees entry-for-entry with the disk-built index
// of the same document, and that non-preorder trees are refused.
func TestPruneTreeIndexMatchesDiskIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 10; iter++ {
		tr := testutil.RandomTree(rng, 600)
		base := filepath.Join(t.TempDir(), "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildIndex(context.Background(), db, 512)
		db.Close()
		if err != nil {
			t.Fatal(err)
		}
		img, err := OpenTree(tr, nil)
		if err != nil {
			t.Fatalf("iter %d: preorder tree refused: %v", iter, err)
		}
		got, err := img.Index(context.Background(), 512)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N || got.Len() != want.Len() {
			t.Fatalf("iter %d: tree index %d entries/%d nodes, disk %d/%d", iter, got.Len(), got.N, want.Len(), want.N)
		}
		for i := range got.Entries() {
			if got.Entries()[i] != want.Entries()[i] {
				t.Fatalf("iter %d entry %d: %+v vs %+v", iter, i, got.Entries()[i], want.Entries()[i])
			}
		}
	}

	// A tree that is not laid out in preorder must be refused, not
	// mis-indexed: its record image does not open.
	bad := tree.New(tree.NewNames())
	r := bad.AddNode(300)
	c1 := bad.AddNode(301)
	c2 := bad.AddNode(302)
	bad.SetFirst(r, c2) // first child is node 2: not preorder
	bad.SetSecond(r, c1)
	if _, err := OpenTree(bad, nil); err == nil || !strings.Contains(err.Error(), "preorder") {
		t.Fatalf("non-preorder tree opened with error %v, want one naming preorder", err)
	}
}

// FuzzReadIndexFile fuzzes the sidecar parser: arbitrary bytes must never
// panic, stale v1 and v2 files must be rejected, and anything accepted
// must satisfy the structural invariants (sorted, in-bounds, laminar)
// and survive a write/read round trip.
func FuzzReadIndexFile(f *testing.F) {
	// Seed: a small valid file.
	valid := func() []byte {
		var e1, e2 LabelSig
		e1.Add(300)
		e2.Add(65)
		ix := newIndex(10, []IndexEntry{
			{V: 0, Size: 10, FirstSize: 4, Label: 300, Labels: e1},
			{V: 1, Size: 4, FirstSize: 0, Label: 65, Labels: e2},
		})
		dir := f.TempDir()
		p := filepath.Join(dir, "seed.idx")
		if err := WriteIndexFile(p, ix); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(valid)
	// Seed: truncated (mid-bitmap).
	f.Add(valid[:len(valid)-17])
	// Seed: a v1 file (must be rejected).
	v1 := append([]byte(indexMagicV1), valid[len(indexMagic):]...)
	f.Add(v1)
	// Seed: a v2 file (must be rejected).
	f.Add(append([]byte(indexMagicV2), valid[len(indexMagic):]...))
	// Seed: overlapping (non-laminar) extents.
	overlap := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(overlap[len(indexMagic)+16+8:], 2) // entry 0: V=0 Size=10; entry 1: V=2..
	binary.BigEndian.PutUint64(overlap[len(indexMagic)+16+8+8:], 9)
	f.Add(overlap)
	// Seed: junk.
	f.Add([]byte("ARBIDX9\nnot an index at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := filepath.Join(dir, "fuzz.idx")
		if err := os.WriteFile(p, data, 0o666); err != nil {
			t.Skip()
		}
		ix, err := ReadIndexFile(p)
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte(indexMagicV1)) || bytes.HasPrefix(data, []byte(indexMagicV2)) {
			t.Fatal("accepted a stale v1 or v2 sidecar")
		}
		// Accepted: the invariants the planner relies on must hold.
		if err := ix.validate(); err != nil {
			t.Fatalf("accepted index fails validation: %v", err)
		}
		// And it must round-trip bit-stably through the writer.
		p2 := filepath.Join(dir, "rt.idx")
		if err := WriteIndexFile(p2, ix); err != nil {
			t.Fatal(err)
		}
		back, err := ReadIndexFile(p2)
		if err != nil {
			t.Fatalf("round trip of accepted index rejected: %v", err)
		}
		if back.N != ix.N || back.Len() != ix.Len() {
			t.Fatalf("round trip changed shape")
		}
		for i := range back.Entries() {
			if back.Entries()[i] != ix.Entries()[i] {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}

// TestReadIndexFileCountBoundsAlloc checks that a 24-byte sidecar whose
// entry count is the largest the reader accepts is rejected before the
// entries are allocated: the bytes left in the file bound the count.
func TestReadIndexFileCountBoundsAlloc(t *testing.T) {
	data := []byte(indexMagic)
	data = binary.BigEndian.AppendUint64(data, 100)   // N
	data = binary.BigEndian.AppendUint64(data, 1<<24) // entry count
	p := filepath.Join(t.TempDir(), "x.idx")
	if err := os.WriteFile(p, data, 0o666); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadIndexFile(p)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 24-byte sidecar claiming 1<<24 entries was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a %d-byte sidecar allocated %d bytes", len(data), alloc)
	}
}

// offsetRecorder records the offset of every read a container's block
// source makes of its physical file.
type offsetRecorder struct {
	r    io.ReaderAt
	offs []int64
}

func (o *offsetRecorder) ReadAt(p []byte, off int64) (int, error) {
	o.offs = append(o.offs, off)
	return o.r.ReadAt(p, off)
}

// createFiles creates a FILE-shaped database at base: a root whose files
// FILE children each hold lines line elements of two characters, the
// files whose index is 5 modulo 16 with one rare element among them. A
// rare-tag query's plan skips every other FILE's contents, which leaves
// the FILE node itself between two skipped extents: the glue record.
func createFiles(t *testing.T, base string, files, lines int) {
	t.Helper()
	db, _, err := Create(base, func(w *EventWriter) error {
		steps := []func() error{func() error { return w.Begin("root") }}
		for f := range files {
			steps = append(steps, func() error { return w.Begin("FILE") })
			for l := range lines {
				steps = append(steps,
					func() error { return w.Begin("line") },
					func() error { return w.Text([]byte("ab")) },
					w.End)
				if f%16 == 5 && l == lines/2 {
					steps = append(steps, func() error { return w.Begin("rare") }, w.End)
				}
			}
			steps = append(steps, w.End)
		}
		steps = append(steps, w.End)
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}, CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

// TestPruneBlockSourceServesGlueFromIndex scans an LZ container of 4 KB
// blocks holding a FILE-shaped document both ways, with the skip list a
// query for its rare tag prunes (the maximal index extents whose label
// signatures lack the tag, as core's planner cuts them) and the index it
// was cut from. The glue records between skipped extents come from the
// index: each pass reports them as IndexBytes, counts them in Bytes but
// not PhysicalBytes, and the block source reads the stored bytes of no
// block but those of the gaps read — the live extents.
func TestPruneBlockSourceServesGlueFromIndex(t *testing.T) {
	ctx := context.Background()
	base := filepath.Join(t.TempDir(), "files")
	createFiles(t, base, 48, 1000)
	compressCopy(t, base, 4096)
	f, err := os.Open(base + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	rec := &offsetRecorder{r: f}
	db, err := OpenReaderAt(base, rec, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix, err := db.Index(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	rare, ok := db.Names.Lookup("rare")
	if !ok {
		t.Fatal("no rare tag")
	}
	var live LabelSig
	live.Add(uint16(rare))
	var skip []Extent
	var skipped int64
	for _, e := range ix.Entries() {
		if e.V == 0 || e.Size < 64 || e.Labels.Intersects(live) || len(skip) > 0 && e.V < skip[len(skip)-1].End() {
			continue
		}
		skip = append(skip, Extent{Root: e.V, Size: e.Size})
		skipped += e.Size
	}

	// The blocks a pass may read: those of the gaps the index does not
	// hold whole. Those of the gaps it does must lie elsewhere too, or
	// reading the glue would go unseen.
	block := func(v int64) int64 { return v * NodeSize / int64(db.comp.blockSize) }
	readBlocks, glue := map[int64]bool{}, map[int64]bool{}
	at := int64(0)
	for i := 0; i <= len(skip); i++ {
		end := db.N
		if i < len(skip) {
			end = skip[i].Root
		}
		if _, whole := ix.span(at, end); whole {
			for v := at; v < end; v++ {
				glue[block(v)] = true
			}
		} else {
			for v := at; v < end; v++ {
				readBlocks[block(v)] = true
			}
		}
		if i < len(skip) {
			at = skip[i].End()
		}
	}
	outside := 0
	for b := range glue {
		if !readBlocks[b] {
			outside++
		}
	}
	if len(skip) < 30 || outside < 20 {
		t.Fatalf("%d skipped extents, %d glue blocks outside the live ones: the document does not prune as laid out", len(skip), outside)
	}

	for _, forward := range []bool{true, false} {
		rec.offs = rec.offs[:0]
		for i := range db.comp.slots {
			db.comp.slots[i].Do(func(s *blockSlot) { s.idx = -1 })
		}
		var st ScanStats
		hole := func(Extent) error { return nil }
		window := func(int64, []byte) error { return nil }
		if forward {
			err = db.ForwardWindows(ctx, 0, db.N, skip, ix, &st, hole, window)
		} else {
			err = db.BackwardWindows(ctx, 0, db.N, skip, ix, &st, hole, window)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.IndexBytes < int64(outside)*NodeSize || st.Bytes+skipped*NodeSize != db.N*NodeSize || st.PhysicalBytes == 0 {
			t.Fatalf("forward %v: %+v over %d nodes, %d skipped: want the glue served from the index", forward, st, db.N, skipped)
		}
		for _, off := range rec.offs {
			b := int64(sort.Search(len(db.comp.offs), func(i int) bool { return db.comp.offs[i] > off })) - 1
			if !readBlocks[b] {
				t.Fatalf("forward %v: the block source read block %d, which holds no record a gap reads", forward, b)
			}
		}
	}
}
