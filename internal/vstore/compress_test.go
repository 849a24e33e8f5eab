package vstore

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"arb/internal/storage"
	"arb/internal/tree"
)

// chainFragment builds an n-node single-subtree fragment of one
// repeated tag — a root whose first child heads a long sibling chain —
// big enough and repetitive enough that the store's write policy
// compresses the patch segment it lands in.
func chainFragment(n int) *tree.Tree {
	names := tree.NewNames()
	t := tree.New(names)
	l := names.MustIntern("blk")
	root := t.AddNode(l)
	prev := t.AddNode(l)
	t.SetFirst(root, prev)
	for i := 2; i < n; i++ {
		next := t.AddNode(l)
		t.SetSecond(prev, next)
		prev = next
	}
	return t
}

// newestSegment returns the path of the highest-numbered .seg file.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no patch segments on disk (err=%v)", err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// assertCompressedFile fails unless path is a v3 block container.
func assertCompressedFile(t *testing.T, path string, want bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := storage.OpenContainer(f, fi.Size())
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if ok != want {
		t.Fatalf("%s: compressed=%v, want %v", path, ok, want)
	}
}

// TestCompressedStorePatchOracle runs the patch differential oracle over
// a store whose base.arb is a compressed container: the write policy is
// inherited at bootstrap, survives manifest reopen, and large patch and
// compaction segments come out block-compressed while every version
// stays byte-identical to the flat-splice oracle.
func TestCompressedStorePatchOracle(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(21))
	doc := randDoc(r, tree.NewNames(), 2500)
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	db, err := storage.CreateFromTree(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.CompressInPlace(base, storage.CodecLZ, 1<<12); err != nil {
		t.Fatal(err)
	}
	st, err := Open(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	if st.codec != storage.CodecLZ || st.blockSize != 1<<12 {
		t.Fatalf("bootstrap did not inherit the base codec: codec=%d blockSize=%d", st.codec, st.blockSize)
	}

	recs := oFromTree(doc)
	snap := st.Snapshot()
	checkVersion(t, snap, recs)
	snap.Release()

	serial := 0
	for step := 0; step < 60; step++ {
		v := r.Int63n(int64(len(recs)))
		var frag *tree.Tree
		if step%12 == 5 {
			// Past compressSegmentMin: this patch segment must compress.
			frag = chainFragment(3000)
		} else {
			frag = randFragment(r, &serial, 20)
		}
		if _, err := st.ReplaceSubtree(ctx, v, frag); err != nil {
			t.Fatalf("step %d: replace %d: %v", step, v, err)
		}
		recs = oReplace(recs, v, oFromTree(frag))
		if step%12 == 5 {
			assertCompressedFile(t, newestSegment(t, dir), true)
		}
		snap := st.Snapshot()
		checkVersion(t, snap, recs)
		snap.Release()

		switch step {
		case 20: // manifest v2 round-trip: reopen keeps the policy
			ver := st.Version()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(ctx, base)
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			st = st2
			if st.Version() != ver {
				t.Fatalf("step %d: reopened at version %d, want %d", step, st.Version(), ver)
			}
			if st.codec != storage.CodecLZ || st.blockSize != 1<<12 {
				t.Fatalf("reopen lost the write policy: codec=%d blockSize=%d", st.codec, st.blockSize)
			}
			snap := st.Snapshot()
			checkVersion(t, snap, recs)
			snap.Release()
		case 40: // compaction output is one compressed segment
			if _, err := st.Compact(ctx); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			assertCompressedFile(t, newestSegment(t, dir), true)
			snap := st.Snapshot()
			checkVersion(t, snap, recs)
			snap.Release()
		}
	}
}

// TestManifestV1Accepted downgrades a committed manifest to the v2 wire
// format (old magic, index entries without their roots' labels) and to
// the v1 one (no codec/block-size fields either) by hand, and reopens the
// store: older manifests keep loading, with their entries' labels taken
// from the records and, for v1, the write policy falling back to raw.
func TestManifestV1Accepted(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(9))
	doc := randDoc(r, tree.NewNames(), 120)
	st, base := createStore(t, doc)
	serial := 0
	frag := randFragment(r, &serial, 10)
	if _, err := st.ReplaceSubtree(ctx, 1, frag); err != nil {
		t.Fatal(err)
	}
	recs := oReplace(oFromTree(doc), 1, oFromTree(frag))
	ver := st.Version()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The v2 manifest: the current one with its entries' labels cleared
	// and the old magic.
	m, _, err := readManifest(base + ".arbm")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.entries {
		m.entries[i].Label = 0
	}
	if err := writeManifest(base+".arbm", m); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(base + ".arbm")
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:8]) != manifestMagic {
		t.Fatalf("manifest magic %q, want %q", b[:8], manifestMagic)
	}
	v2 := append([]byte(manifestMagicV2), b[8:]...)
	// The v1 manifest: the v2 one without the two policy fields that
	// follow version, n and names.
	v1 := append([]byte(manifestMagicV1), b[8:8+24]...)
	v1 = append(v1, b[8+40:]...)

	var st2 *Store
	for _, old := range []struct {
		name  string
		bytes []byte
	}{{"v2", v2}, {"v1", v1}} {
		if err := os.WriteFile(base+".arbm", old.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if st2, err = Open(ctx, base); err != nil {
			t.Fatalf("%s manifest rejected: %v", old.name, err)
		}
		if st2.Version() != ver {
			t.Fatalf("%s reopen at version %d, want %d", old.name, st2.Version(), ver)
		}
		snap := st2.Snapshot()
		checkVersion(t, snap, recs)
		snap.Release()
		if old.name == "v2" {
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer st2.Close()
	if st2.codec != storage.CodecRaw || st2.blockSize != 0 {
		t.Fatalf("v1 manifest produced policy codec=%d blockSize=%d, want raw", st2.codec, st2.blockSize)
	}
	// The next commit rewrites the manifest in the current format.
	if _, err := st2.ReplaceSubtree(ctx, 1, randFragment(r, &serial, 10)); err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(base + ".arbm")
	if err != nil {
		t.Fatal(err)
	}
	if string(b2[:8]) != manifestMagic {
		t.Fatalf("recommitted manifest magic %q, want %q", b2[:8], manifestMagic)
	}
}
