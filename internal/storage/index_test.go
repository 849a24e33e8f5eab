package storage

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"arb/internal/testutil"
	"arb/internal/tree"
)

// subtreeSizes computes every node's binary-subtree size directly from
// the in-memory tree — the ground truth the index must agree with.
func subtreeSizes(t *tree.Tree) []int64 {
	n := t.Len()
	size := make([]int64, n)
	for v := n - 1; v >= 0; v-- {
		size[v] = 1
		if c := t.First(tree.NodeID(v)); c != tree.None {
			size[v] += size[c]
		}
		if c := t.Second(tree.NodeID(v)); c != tree.None {
			size[v] += size[c]
		}
	}
	return size
}

func TestBuildIndexMatchesTreeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20; iter++ {
		tr := testutil.RandomTree(rng, 500)
		base := filepath.Join(t.TempDir(), "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		size := subtreeSizes(tr)
		ix, err := BuildIndex(context.Background(), db, 1<<20) // budget larger than any tree: every node indexed
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != tr.Len() {
			t.Fatalf("iter %d: indexed %d of %d nodes under an unlimited budget", iter, ix.Len(), tr.Len())
		}
		for v := 0; v < tr.Len(); v++ {
			e, ok := ix.Lookup(int64(v))
			if !ok {
				t.Fatalf("iter %d: node %d missing", iter, v)
			}
			if e.Size != size[v] {
				t.Fatalf("iter %d: node %d size %d, want %d", iter, v, e.Size, size[v])
			}
			wantFirst := int64(0)
			if c := tr.First(tree.NodeID(v)); c != tree.None {
				wantFirst = size[c]
			}
			if e.FirstSize != wantFirst {
				t.Fatalf("iter %d: node %d first-size %d, want %d", iter, v, e.FirstSize, wantFirst)
			}
		}
		db.Close()
	}
}

// TestBuildIndexBudgetKeepsHeaviestClosedUnderParents holds both index
// builders, under budgets small enough that most nodes are turned away at
// the full heap's door, to a sort-everything oracle: the kept sizes are the
// budget largest (which of several minimum-size subtrees stay is free), and
// every kept node's parent is kept.
func TestBuildIndexBudgetKeepsHeaviestClosedUnderParents(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ctx := context.Background()
	for iter := 0; iter < 20; iter++ {
		tr := testutil.RandomTree(rng, 800)
		base := filepath.Join(t.TempDir(), "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		// The database's own tree is laid out in preorder, which
		// BuildTreeIndex needs and whose node ids the disk index shares.
		if tr, err = db.ReadTree(ctx); err != nil {
			t.Fatal(err)
		}
		size := subtreeSizes(tr)
		sorted := append([]int64(nil), size...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		parent := make([]int64, tr.Len())
		parent[0] = -1
		for v := 0; v < tr.Len(); v++ {
			if c := tr.First(tree.NodeID(v)); c != tree.None {
				parent[c] = int64(v)
			}
			if c := tr.Second(tree.NodeID(v)); c != tree.None {
				parent[c] = int64(v)
			}
		}
		for _, budget := range []int{1, 2, 16, 100} {
			disk, err := BuildIndex(ctx, db, budget)
			if err != nil {
				t.Fatal(err)
			}
			for name, ix := range map[string]*SubtreeIndex{"disk": disk, "tree": BuildTreeIndex(tr, budget)} {
				if ix == nil {
					t.Fatalf("iter %d, %s index: not built", iter, name)
				}
				var kept []int64
				for _, e := range ix.Entries() {
					if e.Size != size[e.V] {
						t.Fatalf("iter %d, %s index, budget %d: node %d has size %d, want %d", iter, name, budget, e.V, e.Size, size[e.V])
					}
					kept = append(kept, e.Size)
					// A parent's subtree is strictly larger, so the fragment
					// is connected and Cut can always derive child extents.
					if p := parent[e.V]; p >= 0 {
						if _, ok := ix.Lookup(p); !ok {
							t.Fatalf("iter %d, %s index, budget %d: node %d indexed but parent %d is not", iter, name, budget, e.V, p)
						}
					}
				}
				sort.Slice(kept, func(i, j int) bool { return kept[i] > kept[j] })
				if want := sorted[:min(budget, len(sorted))]; !slices.Equal(kept, want) {
					t.Fatalf("iter %d, %s index, budget %d: kept sizes %v, the largest are %v", iter, name, budget, kept, want)
				}
			}
		}
		db.Close()
	}
}

func TestCutProducesDisjointSubtreeExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 20; iter++ {
		tr := testutil.RandomTree(rng, 1000)
		base := filepath.Join(t.TempDir(), "db")
		db, err := CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		size := subtreeSizes(tr)
		ix, err := db.Index(context.Background(), 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int64{1, 7, 50, int64(tr.Len())} {
			tasks := ix.Cut(target, 1)
			last := int64(0)
			for _, x := range tasks {
				if x.Root < last {
					t.Fatalf("iter %d target %d: extents overlap or unsorted at %d", iter, target, x.Root)
				}
				last = x.End()
				if x.End() > int64(tr.Len()) {
					t.Fatalf("iter %d target %d: extent [%d,%d) out of range", iter, target, x.Root, x.End())
				}
				if size[x.Root] != x.Size {
					t.Fatalf("iter %d target %d: extent [%d,%d) is not the subtree of %d (size %d)",
						iter, target, x.Root, x.End(), x.Root, size[x.Root])
				}
			}
		}
		db.Close()
	}
}

func TestIndexFileRoundTripAndAutoLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := testutil.RandomTree(rng, 600)
	base := filepath.Join(t.TempDir(), "db")
	db, err := CreateFromTree(base, tr) // writes base.idx as a side effect
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	ix, err := ReadIndexFile(base + ".idx")
	if err != nil {
		t.Fatalf("creation did not persist a readable index: %v", err)
	}
	if ix.N != int64(tr.Len()) {
		t.Fatalf("persisted index describes %d nodes, want %d", ix.N, tr.Len())
	}

	// A fresh handle must load the sidecar rather than rebuild.
	db2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ix2, err := db2.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != ix.Len() {
		t.Fatalf("loaded index has %d entries, sidecar has %d", ix2.Len(), ix.Len())
	}
	for i := 0; i < ix.Len(); i++ {
		a, b := ix.entries[i], ix2.entries[i]
		if a != b {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a, b)
		}
	}
}
