package storage

import (
	"context"
	"path/filepath"
	"testing"

	"arb/internal/tree"
)

func benchDB(b *testing.B) *DB {
	b.Helper()
	// A moderately deep document of ~260k nodes.
	bld := tree.NewBuilder(nil)
	var gen func(depth, fanout int)
	gen = func(depth, fanout int) {
		if err := bld.Begin("n"); err != nil {
			b.Fatal(err)
		}
		if depth > 0 {
			for i := 0; i < fanout; i++ {
				gen(depth-1, fanout)
			}
		}
		if err := bld.End(); err != nil {
			b.Fatal(err)
		}
	}
	gen(8, 4)
	t, err := bld.Tree()
	if err != nil {
		b.Fatal(err)
	}
	db, err := CreateFromTree(filepath.Join(b.TempDir(), "db"), t)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkScanTopDown measures the forward linear scan (phase 2's I/O
// pattern) with a trivial visitor.
func BenchmarkScanTopDown(b *testing.B) {
	db := benchDB(b)
	b.SetBytes(db.N * NodeSize)
	for i := 0; i < b.N; i++ {
		if _, err := ScanTopDown(context.Background(), db, func(v int64, rec Record, parent *struct{}, k int) (struct{}, error) {
			return struct{}{}, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldBottomUp measures the backward linear scan (phase 1's
// I/O pattern).
func BenchmarkFoldBottomUp(b *testing.B) {
	db := benchDB(b)
	b.SetBytes(db.N * NodeSize)
	for i := 0; i < b.N; i++ {
		if _, _, err := FoldBottomUp(context.Background(), db, func(first, second *struct{}, rec Record, v int64) struct{} {
			return struct{}{}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreate measures database creation: one forward pass from
// document events to records, then the .lab and the .idx.
func BenchmarkCreate(b *testing.B) {
	dir := b.TempDir()
	feed := func(ew *EventWriter) error {
		var gen func(depth, fanout int) error
		gen = func(depth, fanout int) error {
			if err := ew.Begin("n"); err != nil {
				return err
			}
			if err := ew.Text([]byte("xy")); err != nil {
				return err
			}
			if depth > 0 {
				for i := 0; i < fanout; i++ {
					if err := gen(depth-1, fanout); err != nil {
						return err
					}
				}
			}
			return ew.End()
		}
		return gen(7, 4)
	}
	var n int64
	for i := 0; i < b.N; i++ {
		db, stats, err := Create(filepath.Join(dir, "db"), feed, CreateOpts{})
		if err != nil {
			b.Fatal(err)
		}
		n = stats.ElemNodes + stats.CharNodes
		db.Close()
	}
	b.SetBytes(n * NodeSize)
}
