package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/testutil"
	"arb/internal/tree"
)

// TestPruneIndexV2RoundTrip checks that label signatures survive the v2
// sidecar round trip and agree with a direct per-subtree recomputation.
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
	}

	path := filepath.Join(t.TempDir(), "x.idx")
	if err := WriteIndexFile(path, ix, nil); err != nil {
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
// DB.Index, and the sidecar is replaced with a v2 file.
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
	// The sidecar must now be a readable v2 file.
	back, err := ReadIndexFile(base + ".idx")
	if err != nil {
		t.Fatalf("sidecar was not refreshed to v2: %v", err)
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

// FuzzReadIndexFile fuzzes the v2 sidecar parser: arbitrary bytes must
// never panic, stale v1 files must be rejected, and anything accepted
// must satisfy the structural invariants (sorted, in-bounds, laminar)
// and survive a write/read round trip.
func FuzzReadIndexFile(f *testing.F) {
	// Seed: a small valid v2 file.
	valid := func() []byte {
		var e1, e2 LabelSig
		e1.Add(300)
		e2.Add(65)
		ix := newIndex(10, []IndexEntry{
			{V: 0, Size: 10, FirstSize: 4, Labels: e1},
			{V: 1, Size: 4, FirstSize: 0, Labels: e2},
		})
		dir := f.TempDir()
		p := filepath.Join(dir, "seed.idx")
		if err := WriteIndexFile(p, ix, nil); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(valid)
	// Seed: truncated v2 (mid-bitmap).
	f.Add(valid[:len(valid)-17])
	// Seed: a v1 file (must be rejected).
	v1 := append([]byte(indexMagicV1), valid[len(indexMagic):]...)
	f.Add(v1)
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
		if bytes.HasPrefix(data, []byte(indexMagicV1)) {
			t.Fatal("accepted a v1 sidecar")
		}
		// Accepted: the invariants the planner relies on must hold.
		if err := ix.validate(); err != nil {
			t.Fatalf("accepted index fails validation: %v", err)
		}
		// And it must round-trip bit-stably through the writer.
		p2 := filepath.Join(dir, "rt.idx")
		if err := WriteIndexFile(p2, ix, nil); err != nil {
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
