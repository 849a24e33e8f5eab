package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/vstore"
	"arb/internal/workload"
)

// junked interleaves the top-level constituents of a document with "J"
// elements holding random forests of j0/j1/j2 elements — labels no test
// query mentions, so their contents are extents a prune plan may skip.
type junked struct {
	h     tree.EventHandler
	rng   *rand.Rand
	depth int
}

func (j *junked) Begin(name string) error { j.depth++; return j.h.Begin(name) }
func (j *junked) Text(s []byte) error     { return j.h.Text(s) }

func (j *junked) End() error {
	j.depth--
	if err := j.h.End(); err != nil || j.depth != 1 || j.rng.Intn(2) == 0 {
		return err
	}
	if err := j.h.Begin("J"); err != nil {
		return err
	}
	if err := j.forest(8 + j.rng.Intn(300)); err != nil {
		return err
	}
	return j.h.End()
}

func (j *junked) forest(n int) error {
	for n > 0 {
		k := 1 + j.rng.Intn(n)
		if err := j.h.Begin(fmt.Sprintf("j%d", j.rng.Intn(3))); err != nil {
			return err
		}
		if err := j.forest(k - 1); err != nil {
			return err
		}
		if err := j.h.End(); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// batchDoc is a Treebank-like document of the given number of sentences
// with junk between them.
func batchDoc(t *testing.T, rng *rand.Rand, sentences int) *tree.Tree {
	t.Helper()
	b := tree.NewBuilder(nil)
	if err := workload.TreebankFeed(workload.TreebankConfig{Seed: rng.Int63(), Sentences: sentences}, &junked{h: b, rng: rng}); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// source is one way of storing a document.
type source struct {
	name string
	db   *storage.DB
}

// batchSources stores tr three ways: a raw file, an LZ container of 4 KB
// blocks, and a vstore snapshot stitched from two segment files — node
// patchAt, which must have no children, replaced by an equal one.
func batchSources(t *testing.T, tr *tree.Tree, patchAt int64) []source {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	raw, err := storage.CreateFromTree(filepath.Join(dir, "raw"), tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	lz, err := storage.CreateFromTree(filepath.Join(dir, "lz"), tr)
	if err != nil {
		t.Fatal(err)
	}
	lz.Close()
	if _, err := storage.CompressInPlace(lz.Base, storage.CodecLZ, 4096); err != nil {
		t.Fatal(err)
	}
	if lz, err = storage.Open(lz.Base); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lz.Close() })
	vdb, err := storage.CreateFromTree(filepath.Join(dir, "v"), tr)
	if err != nil {
		t.Fatal(err)
	}
	vdb.Close()
	st, err := vstore.Open(ctx, vdb.Base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	patch := tree.New(st.Names())
	if l := tr.Label(tree.NodeID(patchAt)); l < tree.FirstNamedLabel {
		patch.AddNode(l)
	} else {
		patch.AddNode(st.Names().MustIntern(tr.Names().Name(l)))
	}
	if _, err := st.ReplaceSubtree(ctx, patchAt, patch); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	t.Cleanup(snap.Release)
	return []source{{"raw", raw}, {"lz", lz}, {"vstore snapshot", snap.DB()}}
}

// filterPrograms are the shape of the XPath filters //NP[PP],
// //S[NP][VP][PP] and //VP[PP]/NP, and of one over a rarer tag, as TMNF.
var filterPrograms = []string{
	`C :- Label[PP]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild; QUERY :- Label[NP], P;`,
	`CN :- Label[NP]; UN :- CN; UN :- UN.invNextSibling; N :- UN.invFirstChild;
	 CV :- Label[VP]; UV :- CV; UV :- UV.invNextSibling; HV :- UV.invFirstChild;
	 CP :- Label[PP]; UP :- CP; UP :- UP.invNextSibling; P :- UP.invFirstChild;
	 NV :- N, HV; QUERY :- Label[S], NV, P;`,
	`C :- Label[PP]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild; F :- Label[VP], P;
	 D :- F.FirstChild; D :- D.NextSibling; QUERY :- D, Label[NP];`,
	`C :- Label[T3]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild; QUERY :- Label[PP], P;`,
}

// batchPool draws the programs batches are made of: regular path programs,
// filters, and programs with several query predicates.
func batchPool(t *testing.T, rng *rand.Rand) []*tmnf.Program {
	t.Helper()
	var pool []*tmnf.Program
	for i := 0; i < 6; i++ {
		prog, err := workload.RandomPathRegex(rng, 3+rng.Intn(6), workload.GrammarAlphabet).Program(workload.RTreebank)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, prog)
	}
	for _, src := range filterPrograms {
		pool = append(pool, tmnf.MustParse(src))
	}
	multi := tmnf.MustParse(`Leaves :- Leaf; NPs :- Label[NP]; UpLeaf :- Leaves.invFirstChild; NPLeaves :- UpLeaf, NPs; Top :- Root;`)
	if err := multi.SetQueries("Leaves", "NPs", "NPLeaves", "Top"); err != nil {
		t.Fatal(err)
	}
	pool = append(pool, multi, testutil.RandomProgramParsed(rng, 4, 8))
	return pool
}

// TestBatchProductOverflowRerunsWide shrinks the one-byte width to two ids,
// so a batch of fresh engines, which starts narrow, outgrows it with its
// product's states partway through: the run must rerun wide, return the
// scalar answers, and leave no temporary file of either attempt behind.
func TestBatchProductOverflowRerunsWide(t *testing.T) {
	lowerParallelKnobs(t)
	ids := stateByteIDs
	t.Cleanup(func() { stateByteIDs = ids })
	ctx := context.Background()
	rng := rand.New(rand.NewSource(27))
	tr := batchDoc(t, rng, 6)
	dir := t.TempDir()
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Regular path programs need no phase 1 (their records decide their
	// bottom-up states); a filter with an upward and a downward condition
	// beside them makes the lane need both phases, and its state file.
	pool := append(batchPool(t, rng)[:5], tmnf.MustParse(filterPrograms[2]))
	want := make([]*Result, len(pool))
	comps := make([]*Compiled, len(pool))
	for i, prog := range pool {
		if comps[i], err = Compile(prog); err != nil {
			t.Fatal(err)
		}
		if want[i], _, err = NewEngine(comps[i], db.Names).RunDiskContext(ctx, db, DiskOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		members := make([]BatchMember, len(pool))
		for m, c := range comps {
			members[m] = BatchMember{E: NewEngine(c, db.Names), AuxInSlot: -1, AuxOutSlot: -1}
		}
		stateByteIDs = 2
		res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, members, DiskBatchOpts{DiskOpts: DiskOpts{NoPrune: true}})
		stateByteIDs = ids
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for m := range members {
			sameSelection(t, res[m], want[m], fmt.Sprintf("%d workers, member %d, rerun wide", workers, m))
		}
		if ds.StateBytes != db.N*stateWide {
			t.Fatalf("%d workers: %d state bytes, want %d: one lane of 4-byte ids", workers, ds.StateBytes, db.N*stateWide)
		}
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("%d files next to the database, %d before the runs", len(after), len(before))
	}
}

// TestBatchCancelInPhase2LeavesNoFiles cancels a batch writing an aux
// sidecar from a context poll inside phase 2: the run must report
// ctx.Err(), remove its state file (the partial sidecar is gone once its
// owner closes it), and credit no node to its engines or its run.
func TestBatchCancelInPhase2LeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	db, err := workload.CreateInfixDB(filepath.Join(dir, "db"), workload.Sequence(4, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var progs []*tmnf.Program
	for _, w := range []string{"A", "C", "G", "T"} {
		rx := workload.PathRegex{W1: []string{w}, W2: []string{"G"}, W3: []string{"T"}}
		prog, err := rx.Program(workload.RInfix)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	members := batchMembers(t, progs, db.Names)
	members[1].AuxOutSlot = 0
	windows := int32((db.N + storage.WindowNodes - 1) / storage.WindowNodes)
	rs := &RunStats{}
	out, err := db.CreateScratch(db.N * storage.MaskStride(1))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = RunDiskBatch(cancelAtPoll{context.Background(), new(atomic.Int32), windows + windows/2}, db, members,
		DiskBatchOpts{DiskOpts: DiskOpts{NoPrune: true, Run: rs}, AuxOut: out, AuxOutStride: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rs.Snapshot(); got.Nodes != 0 || got.PrunedNodes != 0 {
		t.Fatalf("cancelled batch credits %+v to its run, want no nodes", got)
	}
	for m, bm := range members {
		if got := bm.E.Stats(); got.Nodes != 0 {
			t.Fatalf("cancelled batch credits %d nodes to member %d's engine, want 0", got.Nodes, m)
		}
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		var names []string
		for _, f := range after {
			names = append(names, f.Name())
		}
		t.Fatalf("cancelled batch left files behind: %v", names)
	}
}
