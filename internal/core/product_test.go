package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"arb/internal/naive"
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

// checkScans holds a pass to its scans: phase 1 reads or skips every byte
// once, pruned nodes' worth skipped, and so does phase 2 — unless the pass
// omitted it (DiskStats.OneScan), which leaves phase 2 and the state bytes
// zero.
func checkScans(t *testing.T, label string, db *storage.DB, ds *DiskStats, pruned int64) {
	t.Helper()
	phases := []storage.ScanStats{ds.Phase1, ds.Phase2}
	if ds.OneScan != 0 {
		if ds.OneScan != 1 || ds.Phase2 != (storage.ScanStats{}) || ds.StateBytes != 0 {
			t.Fatalf("%s: one-scan pass with profile %+v", label, ds)
		}
		phases = phases[:1]
	}
	for _, ph := range phases {
		if ph.Bytes+ph.SkippedBytes != db.N*storage.NodeSize || ph.SkippedBytes != pruned*storage.NodeSize || ph.Nodes != db.N {
			t.Fatalf("%s: phase profile %+v, want every byte read or skipped once, %d nodes skipped", label, ph, pruned)
		}
	}
}

// twoScanLanes is how many of the members' lanes need phase 2 in a run
// without aux input: those with a member the one-scan analysis rejects.
func twoScanLanes(members []BatchMember) int {
	n := 0
	for _, l := range lanesFor(members, false, nil) {
		for _, m := range l.members {
			if !members[m].E.OneScan() {
				n++
				break
			}
		}
	}
	return n
}

// checkBatchProfile holds a batch run without aux input to its scans (one
// pass: phase 2 only if some lane needs it), the state bytes of the lanes
// that need phase 2 and its members' node credits.
func checkBatchProfile(t *testing.T, label string, db *storage.DB, ds *DiskStats, rs *RunStats, members []BatchMember, pruned int64) {
	t.Helper()
	checkScans(t, label, db, ds, pruned)
	slots := twoScanLanes(members)
	if (ds.OneScan == 1) != (slots == 0) {
		t.Fatalf("%s: one-scan %d with %d lanes needing phase 2", label, ds.OneScan, slots)
	}
	if slots > 0 {
		if w := ds.StateBytes / ((db.N - pruned) * int64(slots)); ds.StateBytes%((db.N-pruned)*int64(slots)) != 0 || (w != stateByte && w != stateNarrow && w != stateWide) {
			t.Fatalf("%s: %d state bytes, not scanned nodes × width × %d lanes", label, ds.StateBytes, slots)
		}
	}
	if got := rs.Snapshot(); got.Nodes != int64(len(members))*db.N || got.PrunedNodes != int64(len(members))*pruned {
		t.Fatalf("%s: run credits %d nodes, %d pruned; want %d and %d per member", label, got.Nodes, got.PrunedNodes, db.N, pruned)
	}
}

// TestBatchLanesMatchScalarAndNaive is the product automaton's differential
// test: random batches of 1 to 20 members — regular path programs, filters,
// programs with several query predicates, the same program twice and the
// same engine twice — over a raw file, an LZ container and a vstore
// snapshot, at one and four workers, pruned and not, select bit-identical
// nodes to each member's scalar run and to the naive oracle, in two
// aggregate linear scans, with the state bytes of their lanes.
func TestBatchLanesMatchScalarAndNaive(t *testing.T) {
	lowerParallelKnobs(t)
	defer func(n, x int64) { PruneMinNodes, PruneMinExtent = n, x }(PruneMinNodes, PruneMinExtent)
	PruneMinNodes, PruneMinExtent = 1, 8
	ctx := context.Background()
	rng := rand.New(rand.NewSource(25))
	prunedRows := 0
	for iter := 0; iter < 3; iter++ {
		tr := batchDoc(t, rng, 8+rng.Intn(12))
		pool := batchPool(t, rng)
		comps := make([]*Compiled, len(pool))
		for i, prog := range pool {
			var err error
			if comps[i], err = Compile(prog); err != nil {
				t.Fatal(err)
			}
			oracle := naive.Evaluate(tr, prog)
			mem, err := NewEngine(comps[i], tr.Names()).RunContext(ctx, tr, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range prog.Queries() {
				for v := 0; v < tr.Len(); v++ {
					if mem.Holds(q, tree.NodeID(v)) != oracle.Holds(q, tree.NodeID(v)) {
						t.Fatalf("iter %d: program %d disagrees with the naive oracle at node %d\n%s", iter, i, v, prog)
					}
				}
			}
		}
		for _, src := range batchSources(t, tr, int64(tr.Len()-1)) {
			db := src.db
			// Each member's scalar run, and engines a batch may share.
			scalar := make([]*Result, len(pool))
			warm := make([]*Engine, len(pool))
			for i, c := range comps {
				warm[i] = NewEngine(c, db.Names)
				var err error
				if scalar[i], _, err = NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{NoPrune: true}); err != nil {
					t.Fatal(err)
				}
				mem, err := NewEngine(c, tr.Names()).RunContext(ctx, tr, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if scalar[i].Count(pool[i].Queries()[0]) != mem.Count(pool[i].Queries()[0]) {
					t.Fatalf("%s: program %d: scalar disk run disagrees with the in-memory one", src.name, i)
				}
				sameAsNaive(t, pool[i], tr, nil, scalar[i], fmt.Sprintf("%s: program %d", src.name, i))
			}
			for round := 0; round < 4; round++ {
				size := 1 + rng.Intn(20)
				if round == 0 {
					size = 1
				}
				members := make([]BatchMember, size)
				progOf := make([]int, size)
				for m := range members {
					i := rng.Intn(len(pool))
					e := warm[i] // the same engine twice, when drawn twice
					if rng.Intn(3) == 0 {
						e = NewEngine(comps[i], db.Names) // cold
					}
					members[m], progOf[m] = BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}, i
				}
				engines := make([]*Engine, size)
				for m, bm := range members {
					engines[m] = bm.E
				}
				ix, err := db.Index(ctx, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					for _, noPrune := range []bool{false, true} {
						label := fmt.Sprintf("iter %d, %s, %d members, %d workers, noprune %v", iter, src.name, size, workers, noPrune)
						var pruned int64
						if plan := PlanPrune(engines, ix, db.N); plan != nil && !noPrune {
							pruned = plan.Nodes
							prunedRows++
						}
						rs := &RunStats{}
						res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, members, DiskBatchOpts{NoPrune: noPrune, Run: rs})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for m := range members {
							sameSelection(t, res[m], scalar[progOf[m]], fmt.Sprintf("%s, member %d", label, m))
						}
						checkBatchProfile(t, label, db, ds, rs, members, pruned)
					}
				}
			}
		}
	}
	if prunedRows == 0 {
		t.Fatal("no batch had a prune plan: the junk extents do not prune")
	}
}

// TestBatchOver64PredicatesSplitsLanes gives a batch more query predicates
// than one product's mask holds: the run steps two lanes, each with its own
// region of the state file, and every member still gets its scalar answer.
func TestBatchOver64PredicatesSplitsLanes(t *testing.T) {
	lowerParallelKnobs(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(64))
	tr := batchDoc(t, rng, 6)
	db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tags := append([]string{"FILE", "J", "j0"}, workload.GrammarAlphabet...)
	var src string
	var qs []string
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("Q%d", i)
		src += fmt.Sprintf("%s :- Label[%s]; ", q, tags[i%len(tags)])
		if i >= len(tags) {
			src += fmt.Sprintf("%s :- Leaf; ", q)
		}
		qs = append(qs, q)
	}
	prog := tmnf.MustParse(src)
	if err := prog.SetQueries(qs...); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]BatchMember, 7) // 70 predicates
	for m := range members {
		members[m] = BatchMember{E: NewEngine(c, db.Names), AuxInSlot: -1, AuxOutSlot: -1}
	}
	if n := len(lanesFor(members, false, nil)); n != 2 {
		t.Fatalf("70 query predicates make %d lanes, want 2", n)
	}
	for _, workers := range []int{1, 4} {
		rs := &RunStats{}
		res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, members, DiskBatchOpts{Run: rs})
		if err != nil {
			t.Fatal(err)
		}
		for m := range members {
			sameSelection(t, res[m], want, fmt.Sprintf("%d workers, member %d", workers, m))
		}
		checkBatchProfile(t, fmt.Sprintf("%d workers", workers), db, ds, rs, members, 0)
	}
}

// TestBatchAuxRoundsMatchScalar chains two batch rounds through widened aux
// sidecars, as a batch of not(..) queries does: in round 0 two members
// write their answers to slots of their own from one product lane; in
// round 1 each reads its slot in a lane of its own, one of them also
// writing its slot again. Answers and sidecars must be the in-memory
// engine's, pruned or not, over every source, at one and four workers.
func TestBatchAuxRoundsMatchScalar(t *testing.T) {
	lowerParallelKnobs(t)
	defer func(n, x int64) { PruneMinNodes, PruneMinExtent = n, x }(PruneMinNodes, PruneMinExtent)
	PruneMinNodes, PruneMinExtent = 1, 8
	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	tr := batchDoc(t, rng, 10)
	regex, err := workload.RandomPathRegex(rng, 4, workload.GrammarAlphabet).Program(workload.RTreebank)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*tmnf.Program{
		tmnf.MustParse(`QUERY :- Label[PP];`), // 0: round 0, slot 0
		tmnf.MustParse(`QUERY :- Label[VP];`), // 1: round 0, slot 1
		regex,                                 // 2: both rounds, no aux
		tmnf.MustParse(`P :- Aux[0]; QUERY :- P.FirstChild;`),  // 3: round 1, reads slot 0
		tmnf.MustParse(`P :- Aux[0]; QUERY :- P.NextSibling;`), // 4: round 1, reads and writes slot 1
	}
	comps := make([]*Compiled, len(progs))
	for i, prog := range progs {
		if comps[i], err = Compile(prog); err != nil {
			t.Fatal(err)
		}
	}
	mem := func(i int, aux func(tree.NodeID) uint16) *Result {
		res, err := NewEngine(comps[i], tr.Names()).RunContext(ctx, tr, RunOpts{Aux: aux})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bitOf := func(r *Result, v tree.NodeID, bit uint16) uint16 {
		if r.Holds(r.Queries()[0], v) {
			return bit
		}
		return 0
	}
	w0, w1, w2 := mem(0, nil), mem(1, nil), mem(2, nil)
	aux3 := func(v tree.NodeID) uint16 { return bitOf(w0, v, 1) }
	aux4 := func(v tree.NodeID) uint16 { return bitOf(w1, v, 1) }
	w3, w4 := mem(3, aux3), mem(4, aux4)
	for i, w := range []*Result{w0, w1, w2, w3, w4} {
		sameAsNaive(t, progs[i], tr, []func(tree.NodeID) uint16{nil, nil, nil, aux3, aux4}[i], w, fmt.Sprintf("program %d", i))
	}
	n := tr.Len()
	wantAux := [2][]byte{make([]byte, 4*n), make([]byte, 4*n)}
	for v := 0; v < n; v++ {
		id := tree.NodeID(v)
		binary.BigEndian.PutUint16(wantAux[0][4*v:], bitOf(w0, id, 1))
		binary.BigEndian.PutUint16(wantAux[0][4*v+2:], bitOf(w1, id, 1))
		binary.BigEndian.PutUint16(wantAux[1][4*v+2:], bitOf(w1, id, 1)|bitOf(w4, id, 2))
	}

	for _, src := range batchSources(t, tr, int64(tr.Len()-1)) {
		db := src.db
		dir := t.TempDir()
		for _, workers := range []int{1, 4} {
			for _, noPrune := range []bool{false, true} {
				label := fmt.Sprintf("%s, %d workers, noprune %v", src.name, workers, noPrune)
				e := func(i int) *Engine { return NewEngine(comps[i], db.Names) }
				aux0, aux1 := filepath.Join(dir, "round0.aux"), filepath.Join(dir, "round1.aux")
				round0 := []BatchMember{
					{E: e(0), AuxInSlot: -1, AuxOutSlot: 0},
					{E: e(2), AuxInSlot: -1, AuxOutSlot: -1},
					{E: e(1), AuxInSlot: -1, AuxOutSlot: 1},
				}
				if l := lanesFor(round0, false, nil); len(l) != 1 {
					t.Fatalf("round 0 steps %d lanes, want one product", len(l))
				}
				res, _, _, err := RunDiskBatchParallel(ctx, db, workers, round0, DiskBatchOpts{AuxOut: aux0, AuxOutStride: 2, NoPrune: noPrune})
				if err != nil {
					t.Fatalf("%s, round 0: %v", label, err)
				}
				for m, want := range []*Result{w0, w2, w1} {
					sameSelection(t, res[m], want, fmt.Sprintf("%s, round 0, member %d", label, m))
				}
				round1 := []BatchMember{
					{E: e(3), AuxInSlot: 0, AuxOutSlot: -1},
					{E: e(2), AuxInSlot: -1, AuxOutSlot: -1},
					{E: e(4), AuxInSlot: 1, AuxOutSlot: 1, AuxOutBit: 1},
				}
				if l := lanesFor(round1, true, nil); len(l) != 3 {
					t.Fatalf("round 1 steps %d lanes, want one per aux reader and one for the rest", len(l))
				}
				res, _, _, err = RunDiskBatchParallel(ctx, db, workers, round1, DiskBatchOpts{AuxIn: aux0, AuxInStride: 2, AuxOut: aux1, AuxOutStride: 2, NoPrune: noPrune})
				if err != nil {
					t.Fatalf("%s, round 1: %v", label, err)
				}
				for m, want := range []*Result{w3, w2, w4} {
					sameSelection(t, res[m], want, fmt.Sprintf("%s, round 1, member %d", label, m))
				}
				for r, path := range []string{aux0, aux1} {
					got, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wantAux[r]) {
						t.Fatalf("%s: round %d wrote aux masks that differ from the reference", label, r)
					}
				}
			}
		}
	}
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
	pool := batchPool(t, rng)[:6]
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
		res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, members, DiskBatchOpts{NoPrune: true})
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
// ctx.Err(), remove its state file and the partial sidecar, and credit no
// node to its engines or its run.
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
	_, _, _, err = RunDiskBatch(cancelAtPoll{context.Background(), new(atomic.Int32), windows + windows/2}, db, members,
		DiskBatchOpts{AuxOut: filepath.Join(dir, "out.aux"), AuxOutStride: 1, NoPrune: true, Run: rs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
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
