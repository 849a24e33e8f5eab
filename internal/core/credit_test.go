package core_test

import (
	"context"
	"math/rand"
	"testing"

	"arb/internal/core"
	"arb/internal/parallel"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
)

// TestCancelledAndPrunedRunsCreditNodes holds the in-memory entry points —
// the driver over a tree's record image — to the node accounting of disk
// runs: a run credits its nodes and pruned nodes — which Nodes includes —
// to its engines and its RunStats once, on success. A pre-cancelled run
// credits nothing, and a two-worker run credits what the sequential run
// does. The tree adapter (RunContext) runs unpruned and reports to its
// engine only; the batch driver over the indexed image prunes.
func TestCancelledAndPrunedRunsCreditNodes(t *testing.T) {
	k := core.CurrentKnobs()
	k.PruneMinNodes, k.PruneMinExtent = 1, 8
	defer core.SetKnobs(k)()
	tr := testutil.RandomTree(rand.New(rand.NewSource(37)), 3000)
	// Label[zz] holds nowhere, so every subtree but the root's is dead.
	prog := tmnf.MustParse(`QUERY :- Label[zz];`)
	img, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := img.Index(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(tr.Len())

	// A driver runs on the given engines, one per member.
	type driver func(ctx context.Context, engines []*core.Engine, rs *core.RunStats) error
	// adapter runs the tree adapter — core's entry point on one worker,
	// parallel's on more — which reports to its engine only.
	adapter := func(workers int) driver {
		return func(ctx context.Context, engines []*core.Engine, _ *core.RunStats) (err error) {
			if workers == 1 {
				_, err = engines[0].RunContext(ctx, tr, core.RunOpts{})
			} else {
				_, err = parallel.RunContext(ctx, engines[0], tr, workers, core.RunOpts{})
			}
			return err
		}
	}
	batch := func(workers int) driver {
		return func(ctx context.Context, engines []*core.Engine, rs *core.RunStats) error {
			members := make([]core.BatchMember, len(engines))
			for m, e := range engines {
				members[m] = core.BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}
			}
			db, err := storage.OpenTree(tr, ix)
			if err != nil {
				return err
			}
			_, _, _, err = core.RunDiskBatchParallel(ctx, db, workers, members, core.DiskBatchOpts{DiskOpts: core.DiskOpts{Run: rs}})
			return err
		}
	}
	drivers := []struct {
		name    string
		members int
		adapter bool   // the tree adapter: unpruned, no RunStats
		seq     driver // the sequential counterpart of a two-worker run
		run     driver
	}{
		{"core.RunContext", 1, true, nil, adapter(1)},
		{"parallel.RunContext", 1, true, adapter(1), adapter(2)},
		{"core.RunDiskBatch over the tree", 3, false, nil, batch(1)},
		{"core.RunDiskBatchParallel over the tree", 3, false, batch(1), batch(2)},
	}
	// credits runs d on fresh engines and returns their node credits summed,
	// and the run's.
	credits := func(ctx context.Context, label string, d driver, members int) (engine, run core.Stats) {
		t.Helper()
		engines := make([]*core.Engine, members)
		for m := range engines {
			c, err := core.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			engines[m] = core.NewEngine(c, tr.Names())
		}
		rs := &core.RunStats{}
		err := d(ctx, engines, rs)
		if ctx.Err() == nil && err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ctx.Err() != nil && err == nil {
			t.Fatalf("%s: a cancelled run succeeded", label)
		}
		for _, e := range engines {
			s := e.Stats()
			engine.Nodes += s.Nodes
			engine.PrunedNodes += s.PrunedNodes
		}
		run = rs.Snapshot()
		return engine, run
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range drivers {
		engine, run := credits(cancelled, d.name+", cancelled", d.run, d.members)
		if engine.Nodes != 0 || engine.PrunedNodes != 0 || run.Nodes != 0 || run.PrunedNodes != 0 {
			t.Fatalf("%s: a cancelled run credits engines %d nodes (%d pruned), its run %d (%d pruned); want none",
				d.name, engine.Nodes, engine.PrunedNodes, run.Nodes, run.PrunedNodes)
		}
		engine, run = credits(context.Background(), d.name, d.run, d.members)
		if engine.Nodes != int64(d.members)*n || (engine.PrunedNodes > 0) == d.adapter || engine.PrunedNodes >= engine.Nodes {
			t.Fatalf("%s: a run credits its engines %d nodes, %d pruned; want %d per member, and a plan unless unpruned (%v)", d.name, engine.Nodes, engine.PrunedNodes, n, d.adapter)
		}
		if !d.adapter && (run.Nodes != engine.Nodes || run.PrunedNodes != engine.PrunedNodes) {
			t.Fatalf("%s: the run credits %d nodes, %d pruned; its engines %d and %d", d.name, run.Nodes, run.PrunedNodes, engine.Nodes, engine.PrunedNodes)
		}
		if d.seq != nil {
			seq, _ := credits(context.Background(), d.name+", sequential", d.seq, d.members)
			if seq.Nodes != engine.Nodes || seq.PrunedNodes != engine.PrunedNodes {
				t.Fatalf("%s: two workers credit %d nodes, %d pruned; the sequential run %d and %d",
					d.name, engine.Nodes, engine.PrunedNodes, seq.Nodes, seq.PrunedNodes)
			}
		}
	}
}
