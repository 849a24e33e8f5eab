package vstore

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"arb/internal/storage"
	"arb/internal/tree"
)

// FuzzReadManifest fuzzes the .arbm parser the same way FuzzReadIndexFile
// fuzzes the .idx sidecar: arbitrary bytes must never panic, anything
// accepted must satisfy the structural invariants (validated segments,
// runs tiling the logical space, a laminar index) and survive a
// write/read round trip, and an accepted manifest must still refuse to
// open as a store when the segments it references do not exist on disk.
func FuzzReadManifest(f *testing.F) {
	// Seed: the manifest of a real patched store.
	valid := func() []byte {
		dir := f.TempDir()
		base := filepath.Join(dir, "seed")
		names := tree.NewNames()
		doc := tree.New(names)
		root := doc.AddNode(names.MustIntern("a"))
		kid := doc.AddNode(names.MustIntern("b"))
		doc.SetFirst(root, kid)
		db, err := storage.CreateFromTree(base, doc)
		if err != nil {
			f.Fatal(err)
		}
		db.Close()
		st, err := Open(context.Background(), base)
		if err != nil {
			f.Fatal(err)
		}
		frag := tree.New(names)
		frag.AddNode(names.MustIntern("c"))
		if _, err := st.ReplaceSubtree(context.Background(), 1, frag); err != nil {
			f.Fatal(err)
		}
		if err := st.Close(); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(base + ".arbm")
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(valid)
	// Seed: truncations — mid-header and mid-payload.
	f.Add(valid[:len(manifestMagic)+12])
	f.Add(valid[:len(valid)-9])
	// Seed: an absurd segment count (must be capped, not allocated).
	huge := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(huge[len(manifestMagic)+24:], 1<<40)
	f.Add(huge)
	// Seed: a segment name escaping the database directory.
	evil := []byte(strings.Replace(string(valid), "seed.arb", "../../arb", 1))
	f.Add(evil)
	// Seed: junk.
	f.Add([]byte("ARBVST1\nnot a manifest at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := filepath.Join(dir, "db.arbm")
		if err := os.WriteFile(p, data, 0o666); err != nil {
			t.Skip()
		}
		m, ix, err := readManifest(p)
		if err != nil {
			return
		}
		// Accepted: re-validation must agree, and the index must exist.
		if ix == nil {
			t.Fatal("accepted manifest without an index")
		}
		if _, err := m.validate(); err != nil {
			t.Fatalf("accepted manifest fails validation: %v", err)
		}
		for _, s := range m.segs {
			if filepath.Base(s.name) != s.name {
				t.Fatalf("accepted segment name %q escapes the directory", s.name)
			}
		}
		// It must round-trip through the writer without changing shape.
		p2 := filepath.Join(dir, "rt.arbm")
		if err := writeManifest(p2, m); err != nil {
			t.Fatal(err)
		}
		back, _, err := readManifest(p2)
		if err != nil {
			t.Fatalf("round trip of accepted manifest rejected: %v", err)
		}
		if back.version != m.version || back.n != m.n || back.names != m.names ||
			len(back.segs) != len(m.segs) || len(back.runs) != len(m.runs) ||
			len(back.entries) != len(m.entries) || len(back.history) != len(m.history) {
			t.Fatal("round trip changed the manifest's shape")
		}
		// Opening the manifest as a store must verify every referenced
		// segment on disk: if any is missing or undersized, Open fails
		// whole. If Open accepts, each segment must really hold the
		// promised bytes (the directory holds only the two manifests, so
		// this branch means the fuzzer referenced one of them as data).
		st, err := Open(context.Background(), filepath.Join(dir, "db"))
		if err != nil {
			return
		}
		defer st.Close()
		for _, s := range m.segs {
			fi, err := os.Stat(filepath.Join(dir, s.name))
			if err != nil {
				t.Fatalf("store opened with missing segment %s: %v", s.name, err)
			}
			if fi.Size() < s.nodes*storage.NodeSize {
				t.Fatalf("store opened with undersized segment %s: %d bytes for %d nodes",
					s.name, fi.Size(), s.nodes)
			}
		}
	})
}

// TestReadManifestCountBoundsAlloc checks that a short manifest whose
// counts claim the largest run or index-entry table the caps allow is
// rejected before the table is allocated: every element takes at least
// one word, so the bytes left in the file bound each count.
func TestReadManifestCountBoundsAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		counts []uint64 // segments, runs, entries: the last is the huge one
	}{
		{"runs", []uint64{0, maxRuns}},
		{"entries", []uint64{0, 0, maxEntries}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Header: version, n, names, codec, block size; then the counts.
			data := []byte(manifestMagic)
			for _, w := range append([]uint64{1, 1, 0, storage.CodecRaw, 0}, tc.counts...) {
				data = binary.BigEndian.AppendUint64(data, w)
			}
			p := filepath.Join(t.TempDir(), "x.arbm")
			if err := os.WriteFile(p, data, 0o666); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := readManifest(p)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("a %d-byte manifest claiming %d %s was accepted", len(data), tc.counts[len(tc.counts)-1], tc.name)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("reading a %d-byte manifest allocated %d bytes", len(data), alloc)
			}
		})
	}
}
