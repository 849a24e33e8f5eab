package core

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
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

func TestRunDiskMatchesMemoryAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		tr := testutil.RandomTree(rng, 60)
		prog := testutil.RandomProgramParsed(rng, 4, 8)
		res, _, _ := diskRun(t, tr, prog, DiskOpts{})

		want := naive.Evaluate(tr, prog)
		c, err := Compile(prog)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		e := NewEngine(c, tr.Names())
		mem, err := e.RunContext(context.Background(), tr, RunOpts{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for _, q := range prog.Queries() {
			for v := 0; v < tr.Len(); v++ {
				id := tree.NodeID(v)
				if got, exp := res.Holds(q, id), want.Holds(q, id); got != exp {
					t.Fatalf("iter %d: disk: %s(%d)=%v, naive %v\nprogram:\n%s\ntree:\n%s",
						iter, prog.PredName(q), v, got, exp, prog, tr)
				}
				if got, exp := res.Holds(q, id), mem.Holds(q, id); got != exp {
					t.Fatalf("iter %d: disk %v != memory %v at %s(%d)", iter, got, exp, prog.PredName(q), v)
				}
			}
		}
	}
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

func TestRunDiskStateFile(t *testing.T) {
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("a"))
	c1 := tr.AddNode(tr.Names().MustIntern("b"))
	tr.SetFirst(root, c1)
	prog := tmnf.MustParse(`QUERY :- Label[b];`)

	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatalf("CreateFromTree: %v", err)
	}
	defer db.Close()
	cpl, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := NewEngine(cpl, db.Names)

	// KeepStateFile retains a uniquely named state file with 4 bytes per
	// node, reported as Result.StateFile.
	res, ds, err := e.RunDiskContext(context.Background(), db, DiskOpts{KeepStateFile: true})
	if err != nil {
		t.Fatalf("RunDisk: %v", err)
	}
	if res.StateFile == "" {
		t.Fatal("KeepStateFile run did not report Result.StateFile")
	}
	st, err := os.Stat(res.StateFile)
	if err != nil {
		t.Fatalf("state file not kept: %v", err)
	}
	if st.Size() != db.N*stateWide || ds.StateBytes != st.Size() {
		t.Fatalf("state file size %d, want %d (stats say %d)", st.Size(), db.N*stateWide, ds.StateBytes)
	}

	// Default: the state file is removed after the run and no path is
	// reported.
	os.Remove(res.StateFile)
	res2, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{})
	if err != nil {
		t.Fatalf("RunDisk: %v", err)
	}
	if res2.StateFile != "" {
		t.Fatalf("default run reported state file %s", res2.StateFile)
	}
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ".sta" {
			t.Fatalf("state file %s left behind", ent.Name())
		}
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

func TestRunDiskFailureInjection(t *testing.T) {
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("a"))
	tr.SetFirst(root, tr.AddNode(tr.Names().MustIntern("b")))
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	prog := tmnf.MustParse(`QUERY :- Label[b];`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, db.Names)

	// State file in a directory that does not exist.
	if _, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{StatePath: filepath.Join(t.TempDir(), "no", "such", "dir", "x.sta")}); err == nil {
		t.Fatal("RunDisk succeeded with an uncreatable state file")
	}

	// Corrupted state file cross-check: run once keeping the state file,
	// truncate the database underneath a mismatched state file.
	if _, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{KeepStateFile: true}); err != nil {
		t.Fatal(err)
	}
	// Overwrite the .arb with a different (single-node) tree while the
	// two-node state file is still around: phase 2's root-state check
	// must catch the mismatch rather than return garbage.
	tr2 := tree.New(db.Names)
	tr2.AddNode(db.Names.MustIntern("a"))
	db2, err := storage.CreateFromTree(base+"2", tr2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, _, err := e.RunDiskContext(context.Background(), db2, DiskOpts{StatePath: base + ".sta"}); err == nil {
		t.Fatal("RunDisk accepted a stale state file") // the .sta is 8 bytes, db2 has 1 node
	}
}

func TestRunDiskMarkedOutputInPhase2(t *testing.T) {
	// The marked-XML output produced during phase 2 must equal the
	// separate-scan EmitXML output.
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 10; iter++ {
		tr := testutil.RandomTree(rng, 60)
		prog := testutil.RandomProgramParsed(rng, 3, 6)
		base := filepath.Join(t.TempDir(), "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, db.Names)
		var inPhase bytes.Buffer
		res, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{MarkTo: &inPhase})
		if err != nil {
			t.Fatal(err)
		}
		var separate bytes.Buffer
		q := prog.Queries()[0]
		if err := storage.EmitXMLContext(context.Background(), db, &separate, func(v int64) bool {
			return res.Holds(q, tree.NodeID(v))
		}); err != nil {
			t.Fatal(err)
		}
		if inPhase.String() != separate.String() {
			t.Fatalf("iter %d:\nphase 2:  %s\nseparate: %s", iter, inPhase.String(), separate.String())
		}
		db.Close()
	}
}
