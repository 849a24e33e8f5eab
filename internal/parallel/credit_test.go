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

// TestCancelledAndPrunedRunsCreditNodes holds the four in-memory drivers to
// the node accounting the disk drivers keep: a run credits its nodes and
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
	batch := func(run func(ctx context.Context, members []core.BatchMember, topts core.TreeBatchOpts) error) driver {
		return func(ctx context.Context, engines []*core.Engine, rs *core.RunStats) error {
			members := make([]core.BatchMember, len(engines))
			for m, e := range engines {
				members[m] = core.BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}
			}
			return run(ctx, members, core.TreeBatchOpts{Index: ix, Run: rs})
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
		{"core.RunBatchTree", 3, nil, batch(func(ctx context.Context, members []core.BatchMember, topts core.TreeBatchOpts) error {
			_, _, err := core.RunBatchTree(ctx, tr, members, topts)
			return err
		})},
		{"parallel.RunBatchContext", 3, batch(func(ctx context.Context, members []core.BatchMember, topts core.TreeBatchOpts) error {
			_, _, err := core.RunBatchTree(ctx, tr, members, topts)
			return err
		}), batch(func(ctx context.Context, members []core.BatchMember, topts core.TreeBatchOpts) error {
			_, _, err := RunBatchContext(ctx, tr, 2, members, topts)
			return err
		})},
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
