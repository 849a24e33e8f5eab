package storage

import (
	"context"
	"encoding/binary"
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
	x := Extent{Root: 0, Size: db.N}
	_, _, err = FoldBottomUpRange(ctx, db, x, func(first, second *struct{}, rec Record, v int64) struct{} {
		visited++
		return struct{}{}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("FoldBottomUpRange: error %v, want context.Canceled", err)
	}
	_, err = ScanTopDownRange(ctx, db, x, func(v int64, rec Record, parent *struct{}, k int) (struct{}, error) {
		visited++
		return struct{}{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ScanTopDownRange: error %v, want context.Canceled", err)
	}
	if visited != 0 {
		t.Errorf("cancelled scans visited %d nodes, want 0", visited)
	}

	// FoldBottomUpRange must not dress a cancellation up as a bad
	// extent: callers retry ErrBadExtent with a rebuilt index, which
	// would turn one cancelled scan into two. Cover plain cancellation
	// and WithCancelCause (whose Cause differs from ctx.Err()).
	for name, cctx := range map[string]context.Context{
		"canceled": ctx,
		"cause": func() context.Context {
			c, cancel := context.WithCancelCause(context.Background())
			cancel(errors.New("operator abort"))
			return c
		}(),
	} {
		_, _, err := FoldBottomUpRange(cctx, db, x, func(first, second *struct{}, rec Record, v int64) struct{} {
			return struct{}{}
		})
		if errors.Is(err, ErrBadExtent) {
			t.Errorf("%s: FoldBottomUpRange reports ErrBadExtent on cancellation: %v", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, err)
		}
	}
}

// TestBatchScanCancel covers the shapes batch execution relies on: the
// widened aux-mask sidecar's size check, and vector-state folds (one state
// per batch member), which a cancelled context aborts before any node is
// visited; no temporary files survive next to the database.
func TestBatchScanCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testutil.RandomTree(rng, 600)
	dir := t.TempDir()
	db, err := CreateFromTree(filepath.Join(dir, "t"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// A widened mask sidecar with one slot per member, as batch rounds
	// write it: slot m of node v carries v+m (for positioning checks).
	const stride = 3
	maskPath := filepath.Join(dir, "t.auxb")
	maskBytes := make([]byte, db.N*MaskStride(stride))
	for v := int64(0); v < db.N; v++ {
		for m := 0; m < stride; m++ {
			binary.BigEndian.PutUint16(maskBytes[v*MaskStride(stride)+int64(m)*MaskSize:], uint16(v)+uint16(m))
		}
	}
	if err := os.WriteFile(maskPath, maskBytes, 0o666); err != nil {
		t.Fatal(err)
	}
	maskF, err := OpenMaskFile(maskPath, db.N, stride)
	if err != nil {
		t.Fatal(err)
	}
	defer maskF.Close()
	if _, err := OpenMaskFile(maskPath, db.N, stride+1); err == nil {
		t.Error("OpenMaskFile accepted a sidecar with the wrong stride")
	}

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

	// Nothing beyond the database files and the sidecar this test wrote.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".arb", ".lab", ".idx", ".auxb":
		default:
			t.Errorf("stray file after cancelled scans: %s", e.Name())
		}
	}
}
