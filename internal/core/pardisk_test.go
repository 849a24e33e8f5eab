package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// the naive fixpoint oracle derives over tr with the aux bits (nil: none):
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

// chained is e as a batch of one chaining aux planes the way one pass of
// a multi-pass query does, through the one slot of aux: with in set it
// reads the planes already there, and with out >= 0 a successful run
// publishes its first query predicate's selection there as plane out.
func chained(e *Engine, aux []AuxPlanes, in bool, out int, opts DiskOpts) ([]BatchMember, DiskBatchOpts) {
	bm := BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}
	if in {
		bm.AuxInSlot = 0
	}
	if out >= 0 {
		bm.AuxOutSlot, bm.AuxOutBit = 0, uint8(out)
	}
	return []BatchMember{bm}, DiskBatchOpts{DiskOpts: opts, Aux: aux}
}

// planesOf returns the aux planes of a node set over n nodes: plane b
// holds the nodes whose aux(v) has bit b, up to the highest bit any node
// has.
func planesOf(n int64, aux func(tree.NodeID) uint16) AuxPlanes {
	var planes AuxPlanes
	for v := range n {
		for m, b := aux(tree.NodeID(v)), 0; m != 0; m, b = m>>1, b+1 {
			for len(planes) <= b {
				planes = append(planes, make([]uint64, (n+63)/64))
			}
			planes[b][v/64] |= uint64(m&1) << (v % 64)
		}
	}
	return planes
}

// samePlanes reports whether a and b hold the same planes, word for word.
func samePlanes(a, b []AuxPlanes) bool {
	return slices.EqualFunc(a, b, func(x, y AuxPlanes) bool { return slices.EqualFunc(x, y, slices.Equal) })
}

// runTreeAux runs e over tr's record image as a batch of one reading the
// aux bits aux gives every node, as planes.
func runTreeAux(ctx context.Context, e *Engine, tr *tree.Tree, aux func(tree.NodeID) uint16) (*Result, error) {
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		return nil, err
	}
	db.Names = e.names
	members, opts := chained(e, []AuxPlanes{planesOf(db.N, aux)}, true, -1, DiskOpts{})
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

// TestRunPoolLowestTaskErrorWins checks that runPool's errors land in
// per-task slots and that, after the join, the lowest-numbered failing
// task's error is the one reported, whichever worker finished first.
func TestRunPoolLowestTaskErrorWins(t *testing.T) {
	const n = 6
	var started sync.WaitGroup
	started.Add(n)
	errs := make([]error, n)
	for i := range errs {
		errs[i] = errors.New("task " + strconv.Itoa(i))
	}
	// n workers, each task failing only once all n have started: every
	// task runs and fails, in an order the scheduler picks.
	err := runPool(context.Background(), n, n, func(_, i int) error {
		started.Done()
		started.Wait()
		if i == 0 {
			return nil
		}
		return errs[i]
	})
	if err != errs[1] {
		t.Fatalf("runPool = %v, want %v", err, errs[1])
	}
}

// TestRunPoolStopsAfterFailure checks that once a task fails, the tasks
// not yet started are skipped: one worker takes them in order.
func TestRunPoolStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := runPool(context.Background(), 1, 5, func(_, i int) error {
		ran = append(ran, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("runPool = %v, want %v", err, boom)
	}
	if !slices.Equal(ran, []int{0, 1, 2}) {
		t.Fatalf("ran tasks %v, want [0 1 2]", ran)
	}
}

// TestRunPoolCancelled checks that a cancelled run with no failing task
// reports ctx.Err(), with tasks and without.
func TestRunPoolCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{0, 3} {
		ran := 0
		err := runPool(ctx, 2, n, func(_, _ int) error { ran++; return nil })
		if err != context.Canceled {
			t.Fatalf("n=%d: runPool = %v, want %v", n, err, context.Canceled)
		}
		if ran != 0 {
			t.Fatalf("n=%d: %d tasks ran under a cancelled context", n, ran)
		}
	}
}

// TestMergeChunksSharedWord merges two workers' chunks whose private
// bitsets share a boundary word: the driver's merge after the join ORs
// both into the Result, counts each selected node once and sums the
// chunks' scan profiles.
func TestMergeChunksSharedWord(t *testing.T) {
	sel := newSelections(2, 200)
	chunk := func(root, end int64) laneMarks {
		m := laneMarks{sel: sel, w0: root / 64, local: make([][]uint64, 2)}
		for qi := range m.local {
			m.local[qi] = make([]uint64, (end-1)/64-m.w0+1)
		}
		return m
	}
	a, b := chunk(10, 71), chunk(70, 200) // both hold word 1 (nodes 64..127)
	want := map[int64]bool{}
	for v := int64(10); v < 71; v += 3 {
		a.mark(1, v)
		want[v] = true
	}
	for v := int64(70); v < 200; v += 5 {
		b.mark(1|2, v)
		want[v] = true
	}
	sel.mark(0, 5) // the leader's own mark, made before the join
	want[5] = true
	var st storage.ScanStats
	mergeChunks(&st, []chunkOut{
		{st: storage.ScanStats{Nodes: 61, Bytes: 100}, marks: []laneMarks{a}},
		{st: storage.ScanStats{Nodes: 130, Bytes: 200}, marks: []laneMarks{b}},
	})
	if st.Nodes != 191 || st.Bytes != 300 {
		t.Fatalf("merged profile %d nodes, %d bytes; want 191, 300", st.Nodes, st.Bytes)
	}
	if got := sel.counts[0]; got != int64(len(want)) {
		t.Fatalf("query 0 counts %d nodes, want %d", got, len(want))
	}
	for v := int64(0); v < 200; v++ {
		if got := sel.sel[0][v/64]&(1<<uint(v%64)) != 0; got != want[v] {
			t.Fatalf("query 0 node %d selected %v, want %v", v, got, want[v])
		}
		inB := v >= 70 && (v-70)%5 == 0
		if got := sel.sel[1][v/64]&(1<<uint(v%64)) != 0; got != inB {
			t.Fatalf("query 1 node %d selected %v, want %v", v, got, inB)
		}
	}
}

// planeIsQuery asserts plane holds exactly the nodes of tr that the naive
// oracle selects for prog's first query predicate: the set an aux-writing
// member publishes.
func planeIsQuery(t *testing.T, label string, plane []uint64, tr *tree.Tree, prog *tmnf.Program) {
	t.Helper()
	want := naive.EvaluateAux(tr, prog, nil)
	q := prog.Queries()[0]
	if len(plane) != (tr.Len()+63)/64 {
		t.Fatalf("%s: plane of %d words for %d nodes", label, len(plane), tr.Len())
	}
	for v := 0; v < tr.Len(); v++ {
		if g, w := plane[v/64]>>(v%64)&1 == 1, want.Holds(q, tree.NodeID(v)); g != w {
			t.Fatalf("%s: plane bit %d is %v, naive %s(%d) %v\nprogram:\n%s", label, v, g, prog.PredName(q), v, w, prog)
		}
	}
}

// TestAuxPublishSharesResultWords runs a batch of two aux-writing members,
// serially and over a frontier: a successful run publishes each member's
// first query predicate as plane AuxOutBit of its AuxOutSlot, and that
// plane is the member's own Result words, not a copy. The planes already
// in a slot stay as they were, and planes below AuxOutBit that no pass
// has published stay nil.
func TestAuxPublishSharesResultWords(t *testing.T) {
	lowerParallelKnobs(t)
	rng := rand.New(rand.NewSource(49))
	ctx := context.Background()
	for iter := 0; iter < 4; iter++ {
		tr := testutil.RandomTree(rng, 300)
		db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		progs := []*tmnf.Program{testutil.RandomProgramParsed(rng, 4, 8), testutil.RandomProgramParsed(rng, 4, 8)}
		var cs []*Compiled
		for _, p := range progs {
			c, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
		held := planesOf(db.N, func(v tree.NodeID) uint16 { return uint16(1 - v%2) })[0]
		for _, workers := range []int{1, 4} {
			label := "iter " + strconv.Itoa(iter) + ", " + strconv.Itoa(workers) + " workers"
			aux := []AuxPlanes{{held}, nil}
			members := []BatchMember{
				{E: NewEngine(cs[0], db.Names), AuxInSlot: -1, AuxOutSlot: 0, AuxOutBit: 1},
				{E: NewEngine(cs[1], db.Names), AuxInSlot: -1, AuxOutSlot: 1, AuxOutBit: 2},
			}
			res, _, _, err := RunDiskBatchParallel(ctx, db, workers, members, DiskBatchOpts{Aux: aux})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(aux[0]) != 2 || len(aux[1]) != 3 || aux[1][0] != nil || aux[1][1] != nil {
				t.Fatalf("%s: slots of %d and %d planes (%v, %v below the published one), want 2 and 3 with nothing below",
					label, len(aux[0]), len(aux[1]), aux[1][0] != nil, len(aux[1]) > 1 && aux[1][1] != nil)
			}
			if &aux[0][0][0] != &held[0] {
				t.Fatalf("%s: the plane slot 0 held before the run was replaced", label)
			}
			for m, p := range []*[]uint64{&aux[0][1], &aux[1][2]} {
				if &(*p)[0] != &res[m].sel[0][0] || len(*p) != len(res[m].sel[0]) {
					t.Fatalf("%s: member %d's plane is not its Result's words", label, m)
				}
				planeIsQuery(t, label+", member "+strconv.Itoa(m), *p, tr, progs[m])
			}
		}
	}
}

// TestAuxFailedRunPublishesNothing runs an aux-writing member into
// failures — an engine whose name table is not the database's, and a state
// file damaged between the phases — and then over the same slot after a
// run whose state ids outgrow one byte and rerun wide: only the run that
// returns success publishes, and it publishes its final attempt's words.
func TestAuxFailedRunPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := workload.CreateInfixDB(filepath.Join(dir, "db"), workload.Sequence(4, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := twoScanProgram(t, db.Names)
	held := planesOf(db.N, func(v tree.NodeID) uint16 { return uint16(v & 1) })[0]
	unchanged := func(label string, aux []AuxPlanes) {
		t.Helper()
		if len(aux[0]) != 1 || &aux[0][0][0] != &held[0] {
			t.Fatalf("%s: the failed run left %d planes in the slot, want the one it held", label, len(aux[0]))
		}
	}

	aux := []AuxPlanes{{held}}
	members, opts := chained(NewEngine(c, tree.NewNames()), aux, false, 1, DiskOpts{NoPrune: true})
	if _, _, _, err := RunDiskBatch(context.Background(), db, members, opts); err == nil {
		t.Fatal("a run against a foreign name table succeeded")
	}
	unchanged("foreign name table", aux)

	done := false
	ctx := atPoll{context.Background(), func() {
		files, _ := filepath.Glob(filepath.Join(dir, "*.sta"))
		if done || len(files) != 1 {
			return
		}
		if st, err := os.Stat(files[0]); err == nil && st.Size() == db.N*stateByte { // phase 1 is over
			done = true
			if err := os.Truncate(files[0], st.Size()/2); err != nil {
				t.Fatal(err)
			}
		}
	}}
	members, opts = chained(NewEngine(c, db.Names), aux, false, 1, DiskOpts{NoPrune: true})
	if _, _, _, err := RunDiskBatch(ctx, db, members, opts); !done || err == nil || !strings.Contains(err.Error(), "core: reading state file") {
		t.Fatalf("truncated state file (seen complete %v): error %v, want a state file read error", done, err)
	}
	unchanged("truncated state file", aux)

	want, _, err := NewEngine(c, db.Names).RunDiskContext(context.Background(), db, DiskOpts{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := stateByteIDs
	t.Cleanup(func() { stateByteIDs = ids })
	stateByteIDs = 2
	e, rs := NewEngine(c, db.Names), &RunStats{}
	members, opts = chained(e, aux, false, 1, DiskOpts{NoPrune: true, Run: rs})
	res, _, ds, err := RunDiskBatch(context.Background(), db, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.BUStateCount() <= 2 || ds.StateBytes != db.N*stateWide {
		t.Fatalf("%d bottom-up states and %d state bytes: the run did not outgrow one byte and rerun wide", e.BUStateCount(), ds.StateBytes)
	}
	if len(aux[0]) != 2 || &aux[0][0][0] != &held[0] || &aux[0][1][0] != &res[0].sel[0][0] {
		t.Fatalf("the rerun run left %d planes, want the held one and its Result's words", len(aux[0]))
	}
	if !slices.Equal(aux[0][1], want.sel[0]) {
		t.Fatal("the rerun run published a plane other than a one-byte run's selection")
	}
}
