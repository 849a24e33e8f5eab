package storage

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/testutil"
)

// TestScanCancel checks the scan primitives honour context cancellation:
// an already-cancelled context aborts every scan shape with ctx.Err()
// before any node is visited.
func TestScanCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := testutil.RandomTree(rng, 500)
	db, err := CreateFromTree(filepath.Join(t.TempDir(), "t"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	visited := 0
	_, _, err = FoldBottomUp(ctx, db, func(first, second *struct{}, rec Record, v int64) struct{} {
		visited++
		return struct{}{}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("FoldBottomUp: error %v, want context.Canceled", err)
	}
	_, err = ScanTopDown(ctx, db, func(v int64, rec Record, parent *struct{}, k int) (struct{}, error) {
		visited++
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ScanTopDown: error %v, want context.Canceled", err)
	}
	_, _, err = foldRange(ctx, db, 0, db.N, func(first, second *struct{}, rec Record, v int64) struct{} {
		visited++
		return struct{}{}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("fold of an extent: error %v, want context.Canceled", err)
	}
	_, err = scanRange(ctx, db, 0, db.N, func(v int64, rec Record, parent *struct{}, k int) (struct{}, error) {
		visited++
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("scan of an extent: error %v, want context.Canceled", err)
	}
	if visited != 0 {
		t.Errorf("cancelled scans visited %d nodes, want 0", visited)
	}
}

// TestBatchScanCancel covers the shape batch execution relies on:
// vector-state folds (one state per batch member), which a cancelled
// context aborts before any node is visited; no temporary files survive
// next to the database.
func TestBatchScanCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testutil.RandomTree(rng, 600)
	dir := t.TempDir()
	db, err := CreateFromTree(filepath.Join(dir, "t"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const stride = 3

	// Vector-state scans (the batch shape: S = one state per member)
	// honour cancellation before visiting a single node.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	_, _, err = FoldBottomUp(ctx, db, func(first, second *[]int32, rec Record, v int64) []int32 {
		visited++
		return make([]int32, stride)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("vector FoldBottomUp: error %v, want context.Canceled", err)
	}
	_, err = ScanTopDown(ctx, db, func(v int64, rec Record, parent *int32, k int) (int32, error) {
		visited++
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("depth-state ScanTopDown: error %v, want context.Canceled", err)
	}
	if visited != 0 {
		t.Errorf("cancelled batch-shaped scans visited %d nodes, want 0", visited)
	}

	// Nothing beyond the database files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".arb", ".lab", ".idx":
		default:
			t.Errorf("stray file after cancelled scans: %s", e.Name())
		}
	}
}
