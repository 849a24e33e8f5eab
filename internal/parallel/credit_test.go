package parallel

import (
	"context"
	"math/rand"
	"testing"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tmnf"
)

// TestCancelledAndPrunedRunsCreditNodes holds the in-memory entry points —
// the driver over a tree's record image — to the node accounting of disk
// runs: a run credits its nodes and
// pruned nodes — which Nodes includes — to its engines and its RunStats
// once, on success. A pre-cancelled run credits nothing, and a pruned
// two-worker run credits what the sequential run does.
func TestCancelledAndPrunedRunsCreditNodes(t *testing.T) {
	defer func(n, x int64) { core.PruneMinNodes, core.PruneMinExtent = n, x }(core.PruneMinNodes, core.PruneMinExtent)
	core.PruneMinNodes, core.PruneMinExtent = 1, 8
	tr := testutil.RandomTree(rand.New(rand.NewSource(37)), 3000)
	// Label[zz] holds nowhere, so every subtree but the root's is dead.
	prog := tmnf.MustParse(`QUERY :- Label[zz];`)
	ix := storage.BuildTreeIndex(tr, 0)
	n := int64(tr.Len())

	// A driver runs on the given engines, one per member.
	type driver func(ctx context.Context, engines []*core.Engine, rs *core.RunStats) error
	single := func(run func(ctx context.Context, e *core.Engine, opts core.RunOpts) error) driver {
		return func(ctx context.Context, engines []*core.Engine, rs *core.RunStats) error {
			return run(ctx, engines[0], core.RunOpts{Index: ix, Run: rs})
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
			_, _, _, err = core.RunDiskBatchParallel(ctx, db, workers, members, core.DiskBatchOpts{Run: rs})
			return err
		}
	}
	drivers := []struct {
		name    string
		members int
		seq     driver // the sequential counterpart of a two-worker run
		run     driver
	}{
		{"core.RunContext", 1, nil, single(func(ctx context.Context, e *core.Engine, opts core.RunOpts) error {
			_, err := e.RunContext(ctx, tr, opts)
			return err
		})},
		{"parallel.RunContext", 1, single(func(ctx context.Context, e *core.Engine, opts core.RunOpts) error {
			_, err := e.RunContext(ctx, tr, opts)
			return err
		}), single(func(ctx context.Context, e *core.Engine, opts core.RunOpts) error {
			_, err := RunContext(ctx, e, tr, 2, opts)
			return err
		})},
		{"core.RunDiskBatch over the tree", 3, nil, batch(1)},
		{"core.RunDiskBatchParallel over the tree", 3, batch(1), batch(2)},
	}
	// credits runs d on fresh engines and returns their node credits summed,
	// and the run's.
	credits := func(ctx context.Context, label string, d driver, members int) (engine, run core.Stats) {
		t.Helper()
		engines := make([]*core.Engine, members)
		for m := range engines {
			engines[m] = engineFor(t, prog, tr.Names())
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
		if engine.Nodes != int64(d.members)*n || engine.PrunedNodes == 0 || engine.PrunedNodes >= engine.Nodes {
			t.Fatalf("%s: a pruned run credits its engines %d nodes, %d pruned; want %d per member and a plan", d.name, engine.Nodes, engine.PrunedNodes, n)
		}
		if run.Nodes != engine.Nodes || run.PrunedNodes != engine.PrunedNodes {
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
