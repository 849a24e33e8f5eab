package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/workload"
)

// TestWarmRunAllocsDoNotGrowWithN pins the scan loops allocation-free: a
// warm run allocates its per-run structures (result bitsets, step cache,
// scan buffers from their pools) and nothing per node, so the count for
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
		for name, run := range map[string]func() error{
			"disk":   func() error { _, _, err := e.RunDiskContext(ctx, db, DiskOpts{}); return err },
			"memory": func() error { _, err := e.RunContext(ctx, tr, RunOpts{}); return err },
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
			if out["batch-memory"], _, err = RunBatchTree(ctx, tr, batchMembers(t, progs, db.Names), TreeBatchOpts{}); err != nil {
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
		maxDenseEntries = 0
		fallback := runAll()
		cache := batchMembers(t, progs[:1], db.Names)[0].E.Share().NewStepCache()
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
// reports ctx.Err() and removes its state file and partial aux sidecar;
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
	_, _, err = NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{
		MarkTo: cancelOnWrite{cancel},
		AuxOut: filepath.Join(dir, "out.aux"),
	})
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
	_, _, err = e.RunDiskContext(cancelAtPoll{context.Background(), new(atomic.Int32), 2}, db, DiskOpts{
		AuxOut: filepath.Join(dir, "out.aux"),
		Run:    rs,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pruned run: error %v, want context.Canceled", err)
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
