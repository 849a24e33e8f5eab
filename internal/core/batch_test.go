package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// batchEngines compiles count random programs into fresh engines plus the
// parallel scalar results to compare against.
func batchPrograms(t *testing.T, rng *rand.Rand, count int) []*tmnf.Program {
	t.Helper()
	progs := make([]*tmnf.Program, count)
	for i := range progs {
		progs[i] = testutil.RandomProgramParsed(rng, 3, 6)
	}
	return progs
}

func batchMembers(t *testing.T, progs []*tmnf.Program, names *tree.Names) []BatchMember {
	t.Helper()
	members := make([]BatchMember, len(progs))
	for i, prog := range progs {
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = BatchMember{E: NewEngine(c, names), AuxInSlot: -1, AuxOutSlot: -1}
	}
	return members
}

// TestBatchMatchesScalarAndNaive is the core-level differential test: the
// batch strategies — sequential and chunked on disk, chunked over the
// tree's record image in RAM — select bit-identical nodes to per-program scalar
// runs and to the naive fixpoint oracle, on random trees and programs.
func TestBatchMatchesScalarAndNaive(t *testing.T) {
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(2024))
	ctx := context.Background()
	for iter := 0; iter < 12; iter++ {
		tr := testutil.RandomTree(rng, 400)
		progs := batchPrograms(t, rng, 3+rng.Intn(4))
		base := filepath.Join(t.TempDir(), "db")
		db, err := storage.CreateFromTree(base, tr)
		if err != nil {
			t.Fatal(err)
		}

		// Scalar reference runs, one engine per program.
		want := make([]*Result, len(progs))
		for i, prog := range progs {
			c, err := Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			want[i], err = NewEngine(c, db.Names).RunContext(ctx, tr, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
		}

		img, err := storage.OpenTree(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		memRes, _, _, err := RunDiskBatchParallel(ctx, img, 4, batchMembers(t, progs, tr.Names()), DiskBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		diskRS := &RunStats{}
		diskRes, _, ds, err := RunDiskBatch(ctx, db, batchMembers(t, progs, db.Names), DiskBatchOpts{DiskOpts: DiskOpts{Run: diskRS}})
		if err != nil {
			t.Fatal(err)
		}
		emptyFrontier(func() {
			rs := &RunStats{}
			res, _, eds, err := RunDiskBatchParallel(ctx, db, 4, batchMembers(t, progs, db.Names), DiskBatchOpts{DiskOpts: DiskOpts{Run: rs}})
			if err != nil {
				t.Fatalf("iter %d empty frontier: %v", iter, err)
			}
			for i, prog := range progs {
				sameResults(t, prog, tr.Len(), res[i], diskRes[i], "batch, empty frontier vs sequential")
			}
			sameProfile(t, "batch, empty frontier vs sequential", eds, ds, rs, diskRS)
		})
		parRes, _, pds, err := RunDiskBatchParallel(ctx, db, 4, batchMembers(t, progs, db.Names), DiskBatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, prog := range progs {
			sameResults(t, prog, tr.Len(), memRes[i], want[i], "batch-memory vs scalar")
			sameResults(t, prog, tr.Len(), diskRes[i], want[i], "batch-disk vs scalar")
			sameResults(t, prog, tr.Len(), parRes[i], want[i], "batch-parallel-disk vs scalar")
			oracle := naive.Evaluate(tr, prog)
			for _, q := range prog.Queries() {
				for v := 0; v < tr.Len(); v++ {
					if g, w := memRes[i].Holds(q, tree.NodeID(v)), oracle.Holds(q, tree.NodeID(v)); g != w {
						t.Fatalf("iter %d member %d: batch %s(%d)=%v, naive %v\nprogram:\n%s",
							iter, i, prog.PredName(q), v, g, w, prog)
					}
				}
			}
		}

		// One aggregate pass for the whole batch, however many members and
		// workers: every .arb byte is read or provably-irrelevant-and-
		// skipped exactly once per phase, and phase 2 runs only if some
		// lane's selections its bottom-up states do not decide.
		members := batchMembers(t, progs, db.Names)
		for name, d := range map[string]*DiskStats{"sequential": ds, "parallel": pds} {
			checkScans(t, fmt.Sprintf("iter %d %s", iter, name), db, d, 0)
			if (d.OneScan == 1) != (twoScanLanes(members) == 0) {
				t.Fatalf("iter %d %s: one-scan %d, %d lanes need phase 2", iter, name, d.OneScan, twoScanLanes(members))
			}
		}
		db.Close()
	}
}

// TestBatchWideStateFallback forces the narrow->wide state width restart
// and checks the run still agrees with the scalar result.
func TestBatchWideStateFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := testutil.RandomTree(rng, 300)
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
	want, err := NewEngine(c, db.Names).RunContext(context.Background(), tr, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameAsNaive(t, prog, tr, nil, want, "in-memory reference")
	e := NewEngine(c, db.Names)
	// An engine that already interned states near the 16-bit limit makes
	// the run pick the wide layout up front.
	for len(e.buStates) < 1<<16-256 {
		e.buStates = append(e.buStates, nil)
	}
	members := []BatchMember{{E: e, AuxInSlot: -1, AuxOutSlot: -1}}
	if newDiskBatch(members, DiskBatchOpts{}).width() != stateWide {
		t.Fatal("padded engine did not select the wide state layout")
	}
	res, _, _, err := RunDiskBatch(context.Background(), db, members, DiskBatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, prog, tr.Len(), res[0], want, "wide-state batch vs scalar")
}

// TestBatchRejectsPerRunOutputsForManyMembers: a named or kept state file
// and marked XML belong to one query, so only a batch of one takes them;
// a larger batch fails up front and creates no file.
func TestBatchRejectsPerRunOutputsForManyMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testutil.RandomTree(rng, 100)
	dir := t.TempDir()
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	progs := []*tmnf.Program{testutil.RandomProgramParsed(rng, 3, 6), testutil.RandomProgramParsed(rng, 3, 6)}
	for _, opts := range []DiskOpts{{StatePath: filepath.Join(dir, "run.sta")}, {KeepStateFile: true}, {MarkTo: io.Discard}} {
		if _, _, _, err := RunDiskBatch(context.Background(), db, batchMembers(t, progs, db.Names), DiskBatchOpts{DiskOpts: opts}); err == nil {
			t.Errorf("a two-member batch accepted %+v", opts)
		}
		if _, _, _, err := RunDiskBatch(context.Background(), db, batchMembers(t, progs[:1], db.Names), DiskBatchOpts{DiskOpts: opts}); err != nil {
			t.Errorf("a batch of one rejected %+v: %v", opts, err)
		}
	}
}
