package xpath

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tree"
	"arb/internal/workload"
)

// TestAnalysisConcurrentFirstUse races the first use of a fresh Prepared's
// analysis on a database: eight executions (one worker, and two over
// chunks) start together with goroutines reading its selection summary and
// prune plan. Every execution must select what a lone execution of another
// fresh Prepared selects, and every reader must see the same summary and
// the same plan. The document is below the prune thresholds, so the plan is
// nil here; core's test of the same name races a non-nil one.
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

// TestOneScanAuxPass runs //NP[not(PP)], whose aux pass the analysis
// admits to one scan, over a Treebank database. The aux pass is one
// backward scan whose phase-1 marks are the plane the main pass reads, so
// the execution runs phase 1 twice and phase 2 once, writes state bytes
// for its main pass alone, and selects what the XPath interpreter selects.
func TestOneScanAuxPass(t *testing.T) {
	const src = "//NP[not(PP)]"
	tr, err := workload.TreebankTree(workload.TreebankConfig{Seed: 5, Sentences: 130})
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := prepare(t, src, db)
	if p.Passes() != 2 || !p.aux[0].OneScan() || p.main.OneScan() {
		t.Fatalf("%s: %d passes, aux pass one-scan %v, main %v: want the aux pass alone admitted", src, p.Passes(), p.aux[0].OneScan(), p.main.OneScan())
	}
	path, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var want []tree.NodeID
	for _, v := range selected(NewInterp(tr).Eval(path)) {
		want = append(want, tree.NodeID(v))
	}
	for _, workers := range []int{1, 4} {
		res, es, err := p.ExecDisk(context.Background(), db, ExecOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		n, d := db.N, es.Disk
		if es.Passes != 2 || d.OneScan != 1 || d.Phase1.Nodes != 2*n || d.Phase2.Nodes != n {
			t.Fatalf("%d workers: %d passes, %d one-scan, phase 1 %d and phase 2 %d nodes of %d: want one scan, then two", workers, es.Passes, d.OneScan, d.Phase1.Nodes, d.Phase2.Nodes, n)
		}
		if w := d.StateBytes / n; d.StateBytes%n != 0 || w != 1 && w != 2 && w != 4 {
			t.Fatalf("%d workers: %d state bytes, not the main pass's %d nodes × width", workers, d.StateBytes, n)
		}
		if got := res.Selected(p.Queries()[0]); !slices.Equal(got, want) {
			t.Fatalf("%d workers: %d nodes selected, the interpreter %d", workers, len(got), len(want))
		}
	}
}

// TestOneScanAuxInputOnlyWhereRead runs //VP[not(NP) and not(PP)] over a
// Treebank database. Its two aux passes read no aux input: only the main
// pass's program mentions Aux, so only the main pass gets the planes, and
// the second aux pass keeps the one-scan verdict that aux input would turn
// off. The execution is three passes, two of them one scan, with state
// bytes for the main pass alone, and selects what the interpreter selects.
func TestOneScanAuxInputOnlyWhereRead(t *testing.T) {
	const src = "//VP[not(NP) and not(PP)]"
	tr, err := workload.TreebankTree(workload.TreebankConfig{Seed: 5, Sentences: 130})
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.CreateFromTree(filepath.Join(t.TempDir(), "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := prepare(t, src, db)
	if p.Passes() != 3 || p.aux[0].Compiled().ReadsAux() || p.aux[1].Compiled().ReadsAux() || !p.main.Compiled().ReadsAux() {
		t.Fatalf("%s: %d passes: want two aux passes that read no aux input and a main pass that does", src, p.Passes())
	}
	path, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var want []tree.NodeID
	for _, v := range selected(NewInterp(tr).Eval(path)) {
		want = append(want, tree.NodeID(v))
	}
	if len(want) == 0 {
		t.Fatalf("%s selects nothing: the comparison proves little", src)
	}
	for _, workers := range []int{1, 4} {
		res, es, err := p.ExecDisk(context.Background(), db, ExecOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		n, d := db.N, es.Disk
		if es.Passes != 3 || d.OneScan != 2 || d.Phase1.Nodes != 3*n || d.Phase2.Nodes != n {
			t.Fatalf("%d workers: %d passes, %d one-scan, phase 1 %d and phase 2 %d nodes of %d: want two one-scan passes, then two scans", workers, es.Passes, d.OneScan, d.Phase1.Nodes, d.Phase2.Nodes, n)
		}
		if d.StateBytes != n {
			t.Fatalf("%d workers: %d state bytes, want the main pass's %d one-byte states", workers, d.StateBytes, n)
		}
		if got := res.Selected(p.Queries()[0]); !slices.Equal(got, want) {
			t.Fatalf("%d workers: %d nodes selected, the interpreter %d", workers, len(got), len(want))
		}
	}
}
