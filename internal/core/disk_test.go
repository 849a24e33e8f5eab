package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// diskRun builds a temporary .arb database from t and evaluates prog over
// it with RunDisk.
func diskRun(tb testing.TB, t *tree.Tree, prog *tmnf.Program, opts DiskOpts) (*Result, *DiskStats, *storage.DB) {
	tb.Helper()
	base := filepath.Join(tb.TempDir(), "db")
	db, err := storage.CreateFromTree(base, t)
	if err != nil {
		tb.Fatalf("CreateFromTree: %v", err)
	}
	tb.Cleanup(func() { db.Close() })
	c, err := Compile(prog)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	e := NewEngine(c, db.Names)
	res, ds, err := e.RunDiskContext(context.Background(), db, opts)
	if err != nil {
		tb.Fatalf("RunDisk: %v", err)
	}
	return res, ds, db
}

func TestRunDiskStackBoundedByDepth(t *testing.T) {
	// A right-deep chain (long sibling list) must not grow the scan
	// stacks: per Proposition 5.1 they are bounded by the XML document
	// depth, and sibling lists are depth-1 structures.
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("r"))
	prev := tree.None
	for i := 0; i < 500; i++ {
		n := tr.AddNode(tr.Names().MustIntern("a"))
		if prev == tree.None {
			tr.SetFirst(root, n)
		} else {
			tr.SetSecond(prev, n)
		}
		prev = n
	}
	prog := tmnf.MustParse(`QUERY :- Label[a], LastSibling;`)
	res, ds, _ := diskRun(t, tr, prog, DiskOpts{})
	if n := res.Count(prog.Queries()[0]); n != 1 {
		t.Fatalf("selected %d nodes, want 1", n)
	}
	// Document depth is 2 (root + children); binary-tree depth is ~501.
	if ds.Phase1.MaxStack > 4 || ds.Phase2.MaxStack > 4 {
		t.Fatalf("scan stacks grew with sibling count: phase1=%d phase2=%d", ds.Phase1.MaxStack, ds.Phase2.MaxStack)
	}
}

func TestRunDiskRejectsForeignNames(t *testing.T) {
	tr := tree.New(nil)
	tr.AddNode(tr.Names().MustIntern("a"))
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatalf("CreateFromTree: %v", err)
	}
	defer db.Close()
	prog := tmnf.MustParse(`QUERY :- Label[a];`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := NewEngine(c, tree.NewNames()) // wrong table
	if _, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{}); err == nil {
		t.Fatal("RunDisk accepted mismatched name table")
	}
}

// TestRunDiskFailureInjection: a run whose state file cannot be created —
// the database's directory is gone — fails instead of answering, and a run
// that keeps its state file still succeeds once the directory is back.
func TestRunDiskFailureInjection(t *testing.T) {
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("a"))
	tr.SetFirst(root, tr.AddNode(tr.Names().MustIntern("b")))
	dir := filepath.Join(t.TempDir(), "d")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(tmnf.MustParse(`R :- Root; QUERY :- R.FirstChild;`)) // a top-down fact: two scans
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, db.Names)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{}); err == nil {
		t.Fatal("RunDisk succeeded with an uncreatable state file")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{KeepStateFile: true})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(res.StateFile); err != nil || st.Size() != 4*db.N {
		t.Fatalf("kept state file %s: %v, want %d bytes", res.StateFile, err, 4*db.N)
	}
}
