package xpath

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/workload"
)

// TestAnalysisConcurrentFirstUse races the first use of a fresh Prepared's
// analysis: eight executions (one worker, and two over chunks) start
// together with goroutines reading its selection summary and prune plan. Every execution
// must select what a lone execution of another fresh Prepared selects, and
// every reader must see the same summary and the same plan.
func TestAnalysisConcurrentFirstUse(t *testing.T) {
	tr, err := workload.TreebankTree(workload.TreebankConfig{Seed: 5, Sentences: 130})
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer func(n, x int64) { core.PruneMinNodes, core.PruneMinExtent = n, x }(core.PruneMinNodes, core.PruneMinExtent)
	core.PruneMinNodes, core.PruneMinExtent = 1, 8
	ctx := context.Background()
	ix, err := db.Index(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"//NP", "//NP[PP]", "//VP/NP"} {
		want, _, err := prepare(t, src, db).ExecDisk(ctx, db, ExecOpts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := want.Queries()[0]
		p := prepare(t, src, db)
		start := make(chan struct{})
		var wg sync.WaitGroup
		got := make([]*core.Result, 8)
		errs := make([]error, len(got))
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], _, errs[i] = p.ExecDisk(ctx, db, ExecOpts{Workers: 1 + i%2})
			}()
		}
		sums := make([]*core.SelSummary, 4)
		plans := make([]*core.PrunePlan, len(sums))
		for i := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sums[i] = p.Summary()
				plans[i] = core.PlanPrune([]*core.Engine{p.main}, ix, db.N)
			}()
		}
		close(start)
		wg.Wait()
		for i, res := range got {
			if errs[i] != nil {
				t.Fatalf("%s: execution %d: %v", src, i, errs[i])
			}
			if !slices.Equal(res.Selected(q), want.Selected(q)) {
				t.Fatalf("%s: execution %d selects %d nodes, want %d", src, i, res.Count(q), want.Count(q))
			}
		}
		for i := range sums {
			if sums[i] != sums[0] {
				t.Errorf("%s: reader %d saw another summary", src, i)
			}
			if (plans[i] == nil) != (plans[0] == nil) || plans[i] != nil && (!slices.Equal(plans[i].Extents, plans[0].Extents) || plans[i].Sub(0) != plans[0].Sub(0)) {
				t.Errorf("%s: reader %d saw another prune plan", src, i)
			}
		}
	}
}
