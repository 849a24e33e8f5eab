package core

import (
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

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

// TestBatchRejectsPerRunOutputsForManyMembers: marked XML belongs to one
// query, so only a batch of one takes it; a larger batch fails up front and
// creates no file.
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
	opts := DiskBatchOpts{DiskOpts: DiskOpts{MarkTo: io.Discard}}
	if _, _, _, err := RunDiskBatch(context.Background(), db, batchMembers(t, progs, db.Names), opts); err == nil {
		t.Error("a two-member batch accepted MarkTo")
	}
	if _, _, _, err := RunDiskBatch(context.Background(), db, batchMembers(t, progs[:1], db.Names), opts); err != nil {
		t.Errorf("a batch of one rejected MarkTo: %v", err)
	}
}
