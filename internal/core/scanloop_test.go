package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// TestWarmRunAllocsDoNotGrowWithN pins the scan loops allocation-free: a
// warm run allocates its per-run structures (result bitsets, step caches, a
// batch's product automaton, scan buffers from their pools) and nothing per
// node, so the count for
// a hundred thousand nodes more is the same give or take the logarithmic
// growth of a stack or two — where a single per-node allocation would
// add a hundred thousand.
func TestWarmRunAllocsDoNotGrowWithN(t *testing.T) {
	rx := workload.PathRegex{W1: []string{"A", "C"}, W2: []string{"G"}, W3: []string{"T"}}
	prog, err := rx.Program(workload.RInfix)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	// A batch of eight: one product lane. A run builds its product afresh,
	// so its tables grow with the product states the document reaches —
	// per state, not per node: the row's programs walk to children, as the
	// benchmark's do, and their product saturates at 5 bottom-up and under
	// 200 top-down states on both documents.
	rng := rand.New(rand.NewSource(32))
	batch := make([]*Compiled, 8)
	for i := range batch {
		prog, err := workload.RandomPathRegex(rng, 3+rng.Intn(4), []string{"A", "C", "G", "T"}).Program(workload.RTreebank)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i], err = Compile(prog); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	allocs := map[string][2]float64{}
	var nodes [2]int64
	for i, length := range []int{1 << 14, 1 << 17} {
		db, err := workload.CreateInfixDB(filepath.Join(t.TempDir(), "db"), workload.Sequence(4, length))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tr, err := db.ReadTree(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = db.N
		e := NewEngine(c, db.Names)
		members := make([]BatchMember, len(batch))
		for m, c := range batch {
			members[m] = BatchMember{E: NewEngine(c, db.Names), AuxInSlot: -1, AuxOutSlot: -1}
		}
		for name, run := range map[string]func() error{
			"disk":   func() error { _, _, err := e.RunDiskContext(ctx, db, DiskOpts{}); return err },
			"memory": func() error { _, err := e.RunContext(ctx, tr, RunOpts{}); return err },
			"batch8": func() error { _, _, _, err := RunDiskBatch(ctx, db, members, DiskBatchOpts{}); return err },
		} {
			if err := run(); err != nil { // warm the automata and the buffer pools
				t.Fatal(err)
			}
			a := allocs[name]
			a[i] = testing.AllocsPerRun(5, func() {
				if err := run(); err != nil {
					t.Error(err)
				}
			})
			allocs[name] = a
		}
	}
	if nodes[1]-nodes[0] < 100_000 {
		t.Fatalf("databases of %d and %d nodes are too close in size for the comparison", nodes[0], nodes[1])
	}
	for name, a := range allocs {
		t.Logf("%s: %.0f allocations over %d nodes, %.0f over %d", name, a[0], nodes[0], a[1], nodes[1])
		if a[1] > a[0]+32 {
			t.Errorf("%s run: %.0f allocations over %d nodes but %.0f over %d — something allocates per node",
				name, a[0], nodes[0], a[1], nodes[1])
		}
	}
}

// TestMapFallbackMatchesDenseTables shrinks the dense-table budget to
// nothing, so every step of every strategy takes the StepCache's map
// fallback, and holds the results bit-identical to the dense runs.
func TestMapFallbackMatchesDenseTables(t *testing.T) {
	lowerParallelKnobs(t)
	budget := maxDenseEntries
	t.Cleanup(func() { maxDenseEntries = budget })
	rng := rand.New(rand.NewSource(14))
	ctx := context.Background()
	for iter := 0; iter < 6; iter++ {
		tr := testutil.RandomTree(rng, 400)
		progs := batchPrograms(t, rng, 3)
		db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()

		// Every strategy, each on fresh engines: per program the scalar
		// drivers, then the three batch drivers over all programs.
		runAll := func() map[string][]*Result {
			out := map[string][]*Result{}
			for _, prog := range progs {
				c, err := Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := NewEngine(c, db.Names).RunContext(ctx, tr, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				disk, _, err := NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{})
				if err != nil {
					t.Fatal(err)
				}
				chunked, _, err := NewEngine(c, db.Names).RunDiskParallelContext(ctx, db, 4, DiskOpts{})
				if err != nil {
					t.Fatal(err)
				}
				out["memory"] = append(out["memory"], mem)
				out["disk"] = append(out["disk"], disk)
				out["disk-chunked"] = append(out["disk-chunked"], chunked)
			}
			var err error
			img, err := storage.OpenTree(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out["batch-memory"], _, _, err = RunDiskBatch(ctx, img, batchMembers(t, progs, tr.Names()), DiskBatchOpts{}); err != nil {
				t.Fatal(err)
			}
			if out["batch-disk"], _, _, err = RunDiskBatch(ctx, db, batchMembers(t, progs, db.Names), DiskBatchOpts{}); err != nil {
				t.Fatal(err)
			}
			if out["batch-disk-chunked"], _, _, err = RunDiskBatchParallel(ctx, db, 4, batchMembers(t, progs, db.Names), DiskBatchOpts{}); err != nil {
				t.Fatal(err)
			}
			return out
		}

		dense := runAll()
		for i, prog := range progs {
			sameAsNaive(t, prog, tr, nil, dense["disk"][i], "dense tables")
		}
		maxDenseEntries = 0
		fallback := runAll()
		e := batchMembers(t, progs[:1], db.Names)[0].E
		cache := newStepCache(e.Share(), e.names)
		cache.TDStep(cache.RootTrueSet(cache.BUStep(NoState, NoState, cache.SigID(0, true, 0))), 0, 1)
		maxDenseEntries = budget
		if cache.bu != nil || cache.td != nil || len(cache.buMap) == 0 || len(cache.tdMap) == 0 {
			t.Fatal("a zero dense budget did not force the map fallback")
		}

		for name, want := range dense {
			for i, prog := range progs {
				sameResults(t, prog, tr.Len(), fallback[name][i], want[i], name+": map fallback vs dense tables")
			}
		}
	}
}

// cancelOnWrite cancels a context the first time it is written to.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (w cancelOnWrite) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}

// cancelAtPoll is a context that reports cancellation from its n-th Err
// poll on: a deterministic mid-run cancel for runs with no output to hook.
type cancelAtPoll struct {
	context.Context
	polls *atomic.Int32
	n     int32
}

func (c cancelAtPoll) Err() error {
	if c.polls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRunDiskCancelMidScanLeavesNoFiles cancels a disk run from inside
// phase 2, at whatever node the marked-XML output first spills its buffer
// — mid-window for the block-at-a-time readers — and checks the run
// reports ctx.Err(), removes its state file and publishes no aux plane;
// then cancels a pruned run between its phases, which must in addition
// credit no pruned nodes: a cancelled run saved nothing.
func TestRunDiskCancelMidScanLeavesNoFiles(t *testing.T) {
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
	rx := workload.PathRegex{W1: []string{"A"}, W2: []string{"G"}, W3: []string{"T"}}
	prog, err := rx.Program(workload.RInfix)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aux := make([]AuxPlanes, 1)
	members, opts := chained(NewEngine(c, db.Names), aux, false, 0, DiskOpts{MarkTo: cancelOnWrite{cancel}})
	_, _, _, err = RunDiskBatch(ctx, db, members, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}

	// No node carries label Z, so the plan prunes everything but the root
	// and each phase polls the context once: the second poll is phase 2's.
	c, err = Compile(tmnf.MustParse(`QUERY :- Label[Z];`))
	if err != nil {
		t.Fatal(err)
	}
	e, rs := NewEngine(c, db.Names), &RunStats{}
	if ix, err := db.Index(context.Background(), 0); err != nil || PlanPrune([]*Engine{e}, ix, db.N) == nil {
		t.Fatalf("no prune plan for a label the document lacks (index error %v)", err)
	}
	members, opts = chained(e, aux, false, 0, DiskOpts{Run: rs})
	_, _, _, err = RunDiskBatch(cancelAtPoll{context.Background(), new(atomic.Int32), 2}, db, members, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pruned run: error %v, want context.Canceled", err)
	}
	if aux[0] != nil {
		t.Fatalf("cancelled runs published %d aux planes, want none", len(aux[0]))
	}
	if got, eng := rs.Snapshot().PrunedNodes, e.Stats().PrunedNodes; got != 0 || eng != 0 {
		t.Fatalf("cancelled pruned run credits %d pruned nodes to the run and %d to the engine, want 0", got, eng)
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
		t.Fatalf("cancelled run left files behind: %v", names)
	}
}

// spineTree builds a document whose preorder layout is chosen node for
// node: under the root, one run of sibling "hit" elements per entry of
// glue — glue[i] nodes long, the root counting into the first — whose last
// element carries a random subtree of blobs[i] junk nodes (labels no test
// query mentions). It returns the tree, the blob extents and the node each
// run starts at; every node from a run's start to the end of the document
// is one subtree, so [starts[i], N) is a valid chunk.
func spineTree(t *testing.T, rng *rand.Rand, glue, blobs []int64) (*tree.Tree, []storage.Extent, []int64) {
	t.Helper()
	names := tree.NewNames()
	hit := names.MustIntern("hit")
	for _, n := range []string{"r", "j0", "j1", "j2"} {
		names.MustIntern(n)
	}
	tr := tree.New(names)
	var exts []storage.Extent
	var starts []int64
	prev, link := tr.AddNode(names.MustIntern("r")), tr.SetFirst
	for i := range glue {
		starts = append(starts, int64(tr.Len()))
		if i == 0 {
			starts[0] = 0
		}
		for n := int64(tr.Len()) - starts[i]; n < glue[i]; n++ {
			v := tr.AddNode(hit)
			link(prev, v)
			prev, link = v, tr.SetSecond
		}
		if blobs[i] > 0 {
			if prev == 0 {
				t.Fatal("spineTree: the first run needs a node besides the root")
			}
			exts = append(exts, storage.Extent{Root: int64(tr.Len()), Size: blobs[i]})
			tr.SetFirst(prev, (&doc{junk: int(blobs[i])}).build(tr, rng))
		}
	}
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}
	return tr, exts, starts
}

// sameSelection is sameResults for big documents: it compares the results'
// bitsets and counts a word at a time.
func sameSelection(t *testing.T, got, want *Result, label string) {
	t.Helper()
	for qi := range want.sel {
		if !slices.Equal(got.sel[qi], want.sel[qi]) || got.counts[qi] != want.counts[qi] {
			t.Fatalf("%s: query %d selects %d nodes, want %d (or other ones)", label, qi, got.counts[qi], want.counts[qi])
		}
	}
}

// TestWindowKernelEdges drives the scalar disk driver over a document laid
// out so that holes and chunks start, end and sit a single node apart on
// the edges of the windows the kernels step — the delivered ones
// (storage.WindowNodes) and the 16-times-larger reads under them — from a
// raw file, an LZ container and a stitched vstore snapshot, with and
// without a prune plan, with an empty frontier and with chunks, at every
// state width, as one backward scan (the first pass's label program has
// its selection decided by its bottom-up states, and the marks phase 1
// makes are the aux plane it publishes) and as one forward scan (a program
// whose records decide its bottom-up states, but not its selection),
// through a two-pass aux chain and with marked output, and holds every
// answer, aux plane and marked document to the node-at-a-time in-memory
// engine over the tree the per-record scan reads back.
func TestWindowKernelEdges(t *testing.T) {
	defer func(n, x int64) { pruneMinNodes, pruneMinExtent = n, x }(pruneMinNodes, pruneMinExtent)
	pruneMinNodes, pruneMinExtent = 1, 8
	const W = storage.WindowNodes
	glue := []int64{W, 1, W + 1, 2 * W, W - 1, 16*W + 1, 1, 3}
	blobs := []int64{W, 40, 2*W + 5, 8, W - 1, 16, W + 1, 0}
	rng := rand.New(rand.NewSource(24))
	ctx := context.Background()
	tr, exts, starts := spineTree(t, rng, glue, blobs)

	// The snapshot reads three runs of two segment files: the original up
	// to the element the tail chunk starts at, its replacement (the same
	// childless element again, so the layout stands), and the rest.
	sources := batchSources(t, tr, starts[3]+W)
	raw := sources[0].db

	progs := []*tmnf.Program{
		tmnf.MustParse(`QUERY :- Label[hit];`),
		tmnf.MustParse(`P :- Aux[0]; QUERY :- P.FirstChild;`), // reads pass 0's answer
	}
	// fwdProg selects the hit nodes right after a hit on the spine: a
	// top-down fact over bottom-up states the records decide, so one
	// forward scan, phase 2 alone.
	fwdProg := tmnf.MustParse(`P :- Label[hit]; Q :- P.NextSibling; QUERY :- Q, Label[hit];`)
	// Chunks on the edges: the first two blobs (a prune plan swallows
	// them), and everything from the middle of the 2W run on — its own
	// first gap is exactly one window, the leader's last one too.
	chunks := []storage.Extent{exts[0], exts[1], {Root: starts[3] + W, Size: int64(tr.Len()) - starts[3] - W}}

	for _, src := range sources {
		db := src.db
		if db.N != int64(tr.Len()) {
			t.Fatalf("%s: %d nodes, want %d", src.name, db.N, tr.Len())
		}
		ref, err := db.ReadTree(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := storage.BuildIndex(ctx, db, tr.Len())
		if err != nil {
			t.Fatal(err)
		}
		cs := make([]*Compiled, len(progs))
		for i, prog := range progs {
			if cs[i], err = Compile(prog); err != nil {
				t.Fatal(err)
			}
		}
		want0, err := NewEngine(cs[0], db.Names).RunContext(ctx, ref, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		q0 := progs[0].Queries()[0]
		aux1 := func(v tree.NodeID) uint16 {
			if want0.Holds(q0, v) {
				return 1
			}
			return 0
		}
		want1, err := runTreeAux(ctx, NewEngine(cs[1], db.Names), ref, aux1)
		if err != nil {
			t.Fatal(err)
		}
		sameAsNaive(t, progs[0], ref, nil, want0, src.name+": pass 0 reference")
		sameAsNaive(t, progs[1], ref, aux1, want1, src.name+": pass 1 reference")
		wantAux := []AuxPlanes{{want0.sel[0], want1.sel[0]}}
		plan := PlanPrune([]*Engine{NewEngine(cs[0], db.Names)}, ix, db.N)
		if plan == nil || !slices.Equal(plan.Extents, exts) {
			t.Fatalf("%s: plan %+v, want the blobs %v", src.name, plan, exts)
		}
		cf, err := Compile(fwdProg)
		if err != nil {
			t.Fatal(err)
		}
		if e := NewEngine(cf, db.Names); e.OneScan() || !e.Forward() {
			t.Fatalf("%s: a next-sibling condition: one scan %v, forward %v; want a forward scan", src.name, e.OneScan(), e.Forward())
		}
		if fp := PlanPrune([]*Engine{NewEngine(cf, db.Names)}, ix, db.N); fp == nil || !slices.Equal(fp.Extents, exts) {
			t.Fatalf("%s: forward program's plan %+v, want the blobs %v", src.name, fp, exts)
		}
		wantF, err := NewEngine(cf, db.Names).RunContext(ctx, ref, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameAsNaive(t, fwdProg, ref, nil, wantF, src.name+": forward reference")
		if wantF.counts[0] == 0 {
			t.Fatalf("%s: the forward program selects nothing", src.name)
		}

		for _, width := range []int{stateByte, stateNarrow, stateWide, 0} {
			for _, plan := range []*PrunePlan{nil, plan} {
				for _, tasks := range [][]storage.Extent{nil, chunks} {
					if width != stateByte && width != 0 && (db != raw || plan == nil || tasks == nil) {
						continue // the wider codecs: one row, the one with every kind of hole
					}
					// Width 0 is one scan: the label program's bottom-up
					// states decide its selection, so phase 1 alone.
					oneScan := width == 0
					label := fmt.Sprintf("%s, width %d, pruned %v, %d chunks", src.name, width, plan != nil, len(tasks))
					aux := make([]AuxPlanes, 1)
					b := newDiskBatch(chained(NewEngine(cs[0], db.Names), aux, false, 0, DiskOpts{}))
					res, _, ds, err := b.runDiskChunked(ctx, db, 4, nil, tasks, max(width, stateByte), oneScan, plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					b.publish(res)
					sameSelection(t, res[0], want0, label)
					var pruned int64
					if plan != nil {
						pruned = plan.Nodes
					}
					holes := func(label string, phases ...storage.ScanStats) {
						t.Helper()
						for _, ph := range phases {
							if ph.SkippedBytes != pruned*storage.NodeSize || ph.Bytes+ph.SkippedBytes != db.N*storage.NodeSize || ph.Nodes != db.N {
								t.Fatalf("%s: phase profile %+v, want %d of %d nodes skipped", label, ph, pruned, db.N)
							}
						}
					}
					if oneScan {
						if ds.Phase2 != (storage.ScanStats{}) || ds.OneScan != 1 {
							t.Fatalf("%s: phase 2 %+v, one-scan %d: want one backward scan", label, ds.Phase2, ds.OneScan)
						}
						holes(label, ds.Phase1)
					} else {
						holes(label, ds.Phase1, ds.Phase2)
					}
					if want := (db.N - pruned) * int64(width); ds.StateBytes != want {
						t.Fatalf("%s: %d state bytes, want the %d phase 1 wrote", label, ds.StateBytes, want)
					}
					// The aux-reading pass never prunes.
					b = newDiskBatch(chained(NewEngine(cs[1], db.Names), aux, true, 1, DiskOpts{}))
					if res, _, _, err = b.runDiskChunked(ctx, db, 4, nil, tasks, max(width, stateByte), true, nil); err != nil {
						t.Fatalf("%s, pass 1: %v", label, err)
					}
					b.publish(res)
					sameSelection(t, res[0], want1, label+", pass 1")
					if !samePlanes(aux, wantAux) {
						t.Fatalf("%s: the passes published aux planes that differ from the reference", label)
					}
					if !oneScan {
						continue
					}
					// One forward scan over the same holes and chunks.
					aux = make([]AuxPlanes, 1)
					b = newDiskBatch(chained(NewEngine(cf, db.Names), aux, false, 0, DiskOpts{}))
					if res, _, ds, err = b.runDiskChunked(ctx, db, 4, nil, tasks, stateByte, true, plan); err != nil {
						t.Fatalf("%s, forward: %v", label, err)
					}
					b.publish(res)
					sameSelection(t, res[0], wantF, label+", forward")
					if ds.Phase1 != (storage.ScanStats{}) || ds.StateBytes != 0 || ds.OneScan != 1 {
						t.Fatalf("%s, forward: phase 1 %+v, %d state bytes, one-scan %d: want one forward scan", label, ds.Phase1, ds.StateBytes, ds.OneScan)
					}
					holes(label+", forward", ds.Phase2)
					if !samePlanes(aux, []AuxPlanes{{wantF.sel[0]}}) {
						t.Fatalf("%s, forward: the published aux plane differs from the reference", label)
					}
				}
			}
		}

		var marked, wantMarked bytes.Buffer
		res, _, err := NewEngine(cs[0], db.Names).RunDiskContext(ctx, db, DiskOpts{MarkTo: &marked})
		if err != nil {
			t.Fatalf("%s, marked: %v", src.name, err)
		}
		sameSelection(t, res, want0, src.name+", marked")
		if err := storage.EmitXMLContext(ctx, db, &wantMarked, func(v int64) bool { return want0.Holds(q0, tree.NodeID(v)) }); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marked.Bytes(), wantMarked.Bytes()) {
			t.Fatalf("%s: marked output differs from the separate-scan emitter's", src.name)
		}
	}
}

// TestStateWidthOverflowRerunsWide shrinks the one-byte width to two ids,
// so a run that starts narrow on a fresh engine outgrows it partway through
// phase 1: the entry point must rerun wide, return the wide run's answer
// and statistics, and leave no temporary file of either attempt behind.
// Every run writes states: the one-scan path is off.
func TestStateWidthOverflowRerunsWide(t *testing.T) {
	lowerParallelKnobs(t)
	forceTwoScans(t)
	ids := stateByteIDs
	t.Cleanup(func() { stateByteIDs = ids })
	rng := rand.New(rand.NewSource(25))
	ctx := context.Background()
	for iter := 0; iter < 6; iter++ {
		tr := testutil.RandomTree(rng, 400)
		prog := testutil.RandomProgramParsed(rng, 4, 8)
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
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			stateByteIDs = ids
			wantRS := &RunStats{}
			want, wantDS, err := NewEngine(c, db.Names).RunDiskParallelContext(ctx, db, workers, DiskOpts{NoPrune: true, Run: wantRS})
			if err != nil {
				t.Fatal(err)
			}
			e, rs := NewEngine(c, db.Names), &RunStats{}
			if e.BUStateCount() >= 2 {
				t.Fatal("a fresh engine already has states: the run would not start narrow")
			}
			stateByteIDs = 2
			got, ds, err := e.RunDiskParallelContext(ctx, db, workers, DiskOpts{NoPrune: true, Run: rs})
			if err != nil {
				t.Fatalf("iter %d, %d workers: %v", iter, workers, err)
			}
			if e.BUStateCount() <= 2 {
				continue // too few states to outgrow even two ids
			}
			sameResults(t, prog, tr.Len(), got, want, "rerun wide")
			if wantDS.StateBytes != db.N*stateByte || ds.StateBytes != db.N*stateWide {
				t.Fatalf("iter %d: %d state bytes, %d after the overflow; want %d and %d",
					iter, wantDS.StateBytes, ds.StateBytes, db.N*stateByte, db.N*stateWide)
			}
			ds.StateBytes = wantDS.StateBytes
			sameProfile(t, "rerun wide vs one-byte run", ds, wantDS, rs, wantRS)
		}
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("iter %d: %d files next to the database, %d before the runs", iter, len(after), len(before))
		}
	}
}

// atPoll is a context that calls f at every Err poll — the scans poll
// once per window — and then answers as its parent does: a hook into the
// gaps between windows and between the phases of a run.
type atPoll struct {
	context.Context
	f func()
}

func (c atPoll) Err() error {
	c.f()
	return c.Context.Err()
}

// firstChildA selects the A nodes that are first children of C nodes: a
// top-down fact, so the one-scan analysis rejects it, and a node's records
// decide its bottom-up states, so its runs are one forward scan.
const firstChildA = `P :- Label[C]; Q :- P.FirstChild; QUERY :- Q, Label[A];`

// childOfAWithC selects the A children of A nodes with a C child —
// filterPrograms[2]'s shape over the ACGT labels: an upward condition (the C
// child) and a downward one (the A parent), so neither verdict admits it
// and its runs keep phase 1, the state file and phase 2.
const childOfAWithC = `C :- Label[C]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild; F :- Label[A], P;
	D :- F.FirstChild; D :- D.NextSibling; QUERY :- D, Label[A];`

// twoScanProgram compiles childOfAWithC and checks that it needs both
// phases.
func twoScanProgram(t *testing.T, names *tree.Names) *Compiled {
	t.Helper()
	c, err := Compile(tmnf.MustParse(childOfAWithC))
	if err != nil {
		t.Fatal(err)
	}
	if e := NewEngine(c, names); e.OneScan() || e.Forward() {
		t.Fatalf("the analysis admits an upward and a downward condition: one scan %v, forward %v", e.OneScan(), e.Forward())
	}
	return c
}

// forwardProgram compiles firstChildA and checks that it takes one forward
// scan.
func forwardProgram(t *testing.T, names *tree.Names) *Compiled {
	t.Helper()
	c, err := Compile(tmnf.MustParse(firstChildA))
	if err != nil {
		t.Fatal(err)
	}
	if e := NewEngine(c, names); e.OneScan() || !e.Forward() {
		t.Fatalf("a first-child condition: one scan %v, forward %v; want a forward scan", e.OneScan(), e.Forward())
	}
	return c
}

// TestRunDiskFaultsBetweenPhases damages the state file once phase 1 has
// written it out, and feeds the driver records that are no tree — to a
// two-scan, a forward and a one-scan program: every fault must be the
// error it always was, never an answer, and leave no file behind.
func TestRunDiskFaultsBetweenPhases(t *testing.T) {
	dir := t.TempDir()
	db, err := workload.CreateInfixDB(filepath.Join(dir, "db"), workload.Sequence(4, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := twoScanProgram(t, db.Names)
	for _, tc := range []struct {
		name, want string
		damage     func(f *os.File, size int64) error
	}{
		{"truncated", "core: reading state file", func(f *os.File, size int64) error { return f.Truncate(size / 2) }},
		{"root state flipped", "core: state file corrupt", func(f *os.File, size int64) error {
			_, err := f.WriteAt([]byte{0xff}, size-1) // the root's is the last state phase 1 writes
			return err
		}},
	} {
		done := false
		ctx := atPoll{context.Background(), func() {
			files, _ := filepath.Glob(filepath.Join(dir, "*.sta"))
			if done || len(files) != 1 {
				return
			}
			f, err := os.OpenFile(files[0], os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if st, err := f.Stat(); err != nil {
				t.Fatal(err)
			} else if st.Size() == db.N*stateByte { // complete: phase 1 is over
				done = true
				if err := tc.damage(f, st.Size()); err != nil {
					t.Fatal(err)
				}
			}
		}}
		res, _, err := NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{NoPrune: true})
		if !done {
			t.Fatalf("%s: the state file was never seen complete", tc.name)
		}
		if err == nil || res != nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: result %v, error %v; want no result and %q", tc.name, res, err, tc.want)
		}
	}

	// Records that are no binary tree: a node announcing a second subtree
	// the file does not hold, and two roots.
	for _, tc := range []struct {
		name string
		recs []storage.Record
	}{
		{"missing subtree", []storage.Record{{Label: 1, HasFirst: true, HasSecond: true}, {Label: 2}}},
		{"two roots", []storage.Record{{Label: 1}, {Label: 2}}},
	} {
		b := make([]byte, len(tc.recs)*storage.NodeSize)
		for i, r := range tc.recs {
			binary.BigEndian.PutUint16(b[i*storage.NodeSize:], r.Encode())
		}
		base := filepath.Join(dir, "bad")
		if err := os.WriteFile(base+".arb", b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+".lab", nil, 0o644); err != nil {
			t.Fatal(err)
		}
		bad, err := storage.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{childOfAWithC, firstChildA, `QUERY :- Label[A];`} {
			c, err := Compile(tmnf.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := NewEngine(c, bad.Names).RunDiskContext(context.Background(), bad, DiskOpts{})
			if res != nil || !errors.Is(err, storage.ErrMalformed) {
				t.Fatalf("%s, %s: result %v, error %v; want no result and storage.ErrMalformed", tc.name, src, res, err)
			}
		}
		bad.Close()
		os.Remove(base + ".arb")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.sta")); len(files) != 0 {
		t.Fatalf("failed runs left state files behind: %v", files)
	}
}

// TestRunDiskCancelLandsAtNextWindow cancels a run from its p-th context
// poll on, for a p inside each phase: the kernels have no cancellation
// check of their own — storage polls before every window it hands them,
// and no window is longer than storage.WindowNodes — so the run must stop
// at that very poll, having stepped no node after it.
func TestRunDiskCancelLandsAtNextWindow(t *testing.T) {
	db, err := workload.CreateInfixDB(filepath.Join(t.TempDir(), "db"), workload.Sequence(4, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := twoScanProgram(t, db.Names)
	var total atomic.Int32
	if _, _, err := NewEngine(c, db.Names).RunDiskContext(cancelAtPoll{context.Background(), &total, math.MaxInt32}, db, DiskOpts{NoPrune: true}); err != nil {
		t.Fatal(err)
	}
	windows := int32((db.N + storage.WindowNodes - 1) / storage.WindowNodes)
	if total.Load() < 2*windows {
		t.Fatalf("an uncancelled run polled %d times over two scans of %d windows", total.Load(), windows)
	}
	for _, p := range []int32{total.Load() / 4, total.Load() * 3 / 4} {
		var polls atomic.Int32
		_, _, err := NewEngine(c, db.Names).RunDiskContext(cancelAtPoll{context.Background(), &polls, p}, db, DiskOpts{NoPrune: true})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: error %v, want context.Canceled", p, total.Load(), err)
		}
		if polls.Load() != p {
			t.Fatalf("cancelled at poll %d of %d, but the run polled %d times: it went on past the cancellation", p, total.Load(), polls.Load())
		}
	}
}

// TestOneScanCancel cancels a one-scan run halfway through its only scan:
// it must return the context's error and no result, having created no file
// at any point.
func TestOneScanCancel(t *testing.T) {
	dir := t.TempDir()
	db, err := workload.CreateInfixDB(filepath.Join(dir, "db"), workload.Sequence(4, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := Compile(tmnf.MustParse(`QUERY :- Label[A];`))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int32
	_, ds, err := NewEngine(c, db.Names).RunDiskContext(cancelAtPoll{context.Background(), &total, math.MaxInt32}, db, DiskOpts{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	windows := int32((db.N + storage.WindowNodes - 1) / storage.WindowNodes)
	if ds.OneScan != 1 || total.Load() > windows+1 {
		t.Fatalf("one-scan %d, %d polls over %d windows: want one scan", ds.OneScan, total.Load(), windows)
	}
	var polls atomic.Int32
	seen := 0
	ctx := atPoll{cancelAtPoll{context.Background(), &polls, total.Load() / 2}, func() {
		if after, _ := os.ReadDir(dir); len(after) != len(before) {
			seen = len(after)
		}
	}}
	res, _, err := NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{NoPrune: true})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("result %v, error %v; want no result and context.Canceled", res, err)
	}
	if after, _ := os.ReadDir(dir); seen != 0 || len(after) != len(before) {
		t.Fatalf("a cancelled one-scan run created files: %d entries mid-run, %d after, %d before", seen, len(after), len(before))
	}
}

// TestForwardCancel is TestRunDiskCancelLandsAtNextWindow and
// TestOneScanCancel for a forward run: uncancelled, it polls once per
// window of its one scan and reads no byte in phase 1; cancelled from a
// poll halfway through, it stops at that very poll with the context's
// error and no result, having created no file at any point.
func TestForwardCancel(t *testing.T) {
	dir := t.TempDir()
	db, err := workload.CreateInfixDB(filepath.Join(dir, "db"), workload.Sequence(4, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := forwardProgram(t, db.Names)
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int32
	_, ds, err := NewEngine(c, db.Names).RunDiskContext(cancelAtPoll{context.Background(), &total, math.MaxInt32}, db, DiskOpts{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	windows := int32((db.N + storage.WindowNodes - 1) / storage.WindowNodes)
	if ds.OneScan != 1 || ds.Phase1 != (storage.ScanStats{}) || ds.StateBytes != 0 || total.Load() < windows || total.Load() > windows+1 {
		t.Fatalf("one-scan %d, phase 1 %+v, %d state bytes, %d polls over %d windows: want one forward scan", ds.OneScan, ds.Phase1, ds.StateBytes, total.Load(), windows)
	}
	var polls atomic.Int32
	p := total.Load() / 2
	seen := 0
	ctx := atPoll{cancelAtPoll{context.Background(), &polls, p}, func() {
		if after, _ := os.ReadDir(dir); len(after) != len(before) {
			seen = len(after)
		}
	}}
	res, _, err := NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{NoPrune: true})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("result %v, error %v; want no result and context.Canceled", res, err)
	}
	if polls.Load() != p {
		t.Fatalf("cancelled at poll %d of %d, but the run polled %d times: it went on past the cancellation", p, total.Load(), polls.Load())
	}
	if after, _ := os.ReadDir(dir); seen != 0 || len(after) != len(before) {
		t.Fatalf("a cancelled forward run created files: %d entries mid-run, %d after, %d before", seen, len(after), len(before))
	}
}

// TestForwardMakesNoScratch removes the database's directory, so that no
// scratch file can be created (TestRunDiskFailureInjection's fault): a
// forward run creates none, so it answers as the oracle does all the same.
func TestForwardMakesNoScratch(t *testing.T) {
	tr := workload.InfixTree(workload.Sequence(4, 1<<10))
	dir := filepath.Join(t.TempDir(), "d")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e := NewEngine(forwardProgram(t, db.Names), db.Names)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateScratch(1); err == nil {
		t.Fatal("CreateScratch succeeded without the database's directory")
	}
	res, ds, err := e.RunDiskContext(context.Background(), db, DiskOpts{})
	if err != nil {
		t.Fatalf("a forward run without the database's directory: %v", err)
	}
	if ds.OneScan != 1 || ds.Phase1 != (storage.ScanStats{}) {
		t.Fatalf("one-scan %d, phase 1 %+v: want one forward scan", ds.OneScan, ds.Phase1)
	}
	sameAsNaive(t, tmnf.MustParse(firstChildA), tr, nil, res, "forward run without a directory")
}
