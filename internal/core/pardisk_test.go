package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// lowerParallelKnobs makes RunDiskParallel take the real parallel path on
// tiny trees so the property tests exercise the chunked machinery.
func lowerParallelKnobs(t *testing.T) {
	t.Helper()
	minNodes, minTask := parMinNodes, parMinTask
	parMinNodes, parMinTask = 1, 1
	t.Cleanup(func() { parMinNodes, parMinTask = minNodes, minTask })
}

// emptyFrontier runs f with parMinTask raised past any subtree, so the
// parallel entry points load the index and call Cut, and Cut returns
// nothing: a Workers = 4 run then reaches the driver with no chunk to fan
// out, and must be indistinguishable from a Workers = 1 run.
func emptyFrontier(f func()) {
	minTask := parMinTask
	parMinTask = math.MaxInt64
	defer func() { parMinTask = minTask }()
	f()
}

// sameProfile asserts two runs cost the same: every column of the
// per-phase scan profile (Nodes, Bytes, SkippedBytes, PhysicalBytes,
// MaxStack), the state bytes, and the run statistics apart from wall time.
func sameProfile(t *testing.T, label string, gotDS, wantDS *DiskStats, gotRS, wantRS *RunStats) {
	t.Helper()
	if *gotDS != *wantDS {
		t.Fatalf("%s: disk profile %+v, want %+v", label, *gotDS, *wantDS)
	}
	got, want := gotRS.Snapshot(), wantRS.Snapshot()
	got.Phase1Time, got.Phase2Time, want.Phase1Time, want.Phase2Time = 0, 0, 0, 0
	if got != want {
		t.Fatalf("%s: run stats %+v, want %+v", label, got, want)
	}
}

// sameResults asserts two results select bit-identical node sets for
// every query of prog.
func sameResults(t *testing.T, prog *tmnf.Program, n int, got, want *Result, label string) {
	t.Helper()
	for _, q := range prog.Queries() {
		if got.Count(q) != want.Count(q) {
			t.Fatalf("%s: %s selected %d nodes, want %d\nprogram:\n%s",
				label, prog.PredName(q), got.Count(q), want.Count(q), prog)
		}
		for v := 0; v < n; v++ {
			id := tree.NodeID(v)
			if g, w := got.Holds(q, id), want.Holds(q, id); g != w {
				t.Fatalf("%s: %s(%d)=%v, want %v\nprogram:\n%s", label, prog.PredName(q), v, g, w, prog)
			}
		}
	}
}

// sameAsNaive asserts res selects, for every query of prog, exactly what
// the naive fixpoint oracle derives over tr with the aux masks (nil: none):
// the independent check beside comparisons of the one driver's variants —
// in memory, on disk, parallel, batched — with each other.
func sameAsNaive(t *testing.T, prog *tmnf.Program, tr *tree.Tree, aux func(tree.NodeID) uint16, res *Result, label string) {
	t.Helper()
	want := naive.EvaluateAux(tr, prog, aux)
	for _, q := range prog.Queries() {
		for v := 0; v < tr.Len(); v++ {
			if g, w := res.Holds(q, tree.NodeID(v)), want.Holds(q, tree.NodeID(v)); g != w {
				t.Fatalf("%s: %s(%d)=%v, naive %v\nprogram:\n%s", label, prog.PredName(q), v, g, w, prog)
			}
		}
	}
}

// chained is e as a batch of one chaining aux masks the way one pass of a
// multi-pass query does: it reads slot 0 of the one-slot sidecar auxIn
// when that is set, and writes its input masks ORed with bit wherever its
// first query predicate holds to slot 0 of auxOut when that is set.
func chained(e *Engine, auxIn, auxOut string, bit uint8, opts DiskOpts) ([]BatchMember, DiskBatchOpts) {
	bm := BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1, AuxOutBit: bit}
	bo := DiskBatchOpts{DiskOpts: opts, AuxIn: auxIn, AuxOut: auxOut}
	if auxIn != "" {
		bm.AuxInSlot, bo.AuxInStride = 0, 1
	}
	if auxOut != "" {
		bm.AuxOutSlot, bo.AuxOutStride = 0, 1
	}
	return []BatchMember{bm}, bo
}

// runTreeAux runs e over tr's record image as a batch of one reading the
// masks aux gives every node, from slot 0 of a one-slot sidecar in RAM.
func runTreeAux(ctx context.Context, e *Engine, tr *tree.Tree, aux func(tree.NodeID) uint16) (*Result, error) {
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		return nil, err
	}
	db.Names = e.names
	masks := make([]byte, db.N*storage.MaskSize)
	for v := range db.N {
		binary.BigEndian.PutUint16(masks[v*storage.MaskSize:], aux(tree.NodeID(v)))
	}
	f, err := db.CreateScratch("aux", int64(len(masks)))
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteAt(masks, 0); err != nil {
		return nil, err
	}
	members, opts := chained(e, "aux", "", 0, DiskOpts{})
	res, _, _, err := RunDiskBatch(ctx, db, members, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestRunDiskConcurrentRunsShareDatabase(t *testing.T) {
	// Two concurrent default-option runs over one database must not
	// clobber each other's state files (the old default was a shared
	// base.sta).
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(79))
	tr := testutil.RandomTree(rng, 400)
	prog := testutil.RandomProgramParsed(rng, 4, 8)
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := NewEngine(c, db.Names).RunDiskContext(context.Background(), db, DiskOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	results := make([]*Result, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewEngine(c, db.Names)
			if i%2 == 0 {
				results[i], _, errs[i] = e.RunDiskContext(context.Background(), db, DiskOpts{})
			} else {
				results[i], _, errs[i] = e.RunDiskParallelContext(context.Background(), db, 3, DiskOpts{})
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sameResults(t, prog, tr.Len(), results[i], want, "concurrent")
	}
	// No stray state files left next to the database.
	entries, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".sta") {
			t.Fatalf("stray state file %s left behind", ent.Name())
		}
	}
}

func TestRunDiskParallelRecoversFromForeignIndex(t *testing.T) {
	// Swap the .arb underneath a same-node-count index (so the N check
	// cannot catch it): the run must detect the extent mismatch, rebuild
	// the index, and still return results identical to RunDisk.
	lowerParallelKnobs(t)
	names := tree.NewNames()
	balanced := workload.InfixTree(workload.Sequence(5, 1<<10-1))
	chain := tree.New(names)
	prev := tree.None
	for i := 0; i < balanced.Len(); i++ {
		n := chain.AddNode(chain.Names().MustIntern([]string{"l", "i", "p"}[i%3]))
		if prev == tree.None {
			prev = n
		} else {
			chain.SetSecond(prev, n)
			prev = n
		}
	}
	dir := t.TempDir()
	if _, err := storage.CreateFromTree(filepath.Join(dir, "bal"), balanced); err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), chain)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	// The chain database keeps its .lab and node count, but its .arb and
	// .idx now disagree: the .arb is the balanced tree's.
	bal, err := os.ReadFile(filepath.Join(dir, "bal.arb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "db.arb"), bal, 0o644); err != nil {
		t.Fatal(err)
	}
	balLab, err := os.ReadFile(filepath.Join(dir, "bal.lab"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "db.lab"), balLab, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = storage.Open(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	prog := tmnf.MustParse(`QUERY :- Label[A];`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := NewEngine(c, db.Names).RunDiskContext(context.Background(), db, DiskOpts{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := NewEngine(c, db.Names).RunDiskParallelContext(context.Background(), db, 4, DiskOpts{})
	if err != nil {
		t.Fatalf("parallel run did not recover from the stale index: %v", err)
	}
	sameResults(t, prog, balanced.Len(), par, seq, "foreign index")
	// The recovery must have rebuilt and re-persisted the sidecar: the
	// chain index had FirstSize 0 at the root, the balanced tree does not.
	ix, err := storage.ReadIndexFile(filepath.Join(dir, "db.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := ix.Lookup(0); !ok || e.FirstSize == 0 {
		t.Fatalf("index was not rebuilt from the swapped data: root entry %+v, ok=%v", e, ok)
	}
}

func TestRunDiskParallelFallsBackForMarkedOutput(t *testing.T) {
	// MarkTo is order-dependent streaming output: the parallel entry
	// point must still produce it, by running with an empty frontier —
	// at the same cost as a one-worker run.
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(83))
	tr := testutil.RandomTree(rng, 80)
	prog := testutil.RandomProgramParsed(rng, 3, 6)
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	var seqXML, parXML bytes.Buffer
	seqRS, parRS := &RunStats{}, &RunStats{}
	seq, seqDS, err := NewEngine(c, db.Names).RunDiskContext(context.Background(), db, DiskOpts{MarkTo: &seqXML, Run: seqRS})
	if err != nil {
		t.Fatal(err)
	}
	par, parDS, err := NewEngine(c, db.Names).RunDiskParallelContext(context.Background(), db, 4, DiskOpts{MarkTo: &parXML, Run: parRS})
	if err != nil {
		t.Fatal(err)
	}
	if seqXML.String() != parXML.String() {
		t.Fatalf("marked output differs:\nseq: %s\npar: %s", seqXML.String(), parXML.String())
	}
	sameResults(t, prog, tr.Len(), par, seq, "marked output")
	sameProfile(t, "marked output, 4 workers vs 1", parDS, seqDS, parRS, seqRS)
}
