package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/workload"
)

// parityProgram is the evenpages example's counting program (Example 2.2)
// over Treebank labels: the S nodes whose subtrees hold an even number of
// NP nodes.
const parityProgram = `
	SelfOdd :- Label[NP]; SelfEven :- -Label[NP];
	LeafEven :- Leaf, SelfEven; LeafOdd :- Leaf, SelfOdd;
	Even :- LeafEven; Odd :- LeafOdd;
	Even :- SFREvenKids, SelfEven; Odd :- SFREvenKids, SelfOdd;
	Odd :- SFROddKids, SelfEven; Even :- SFROddKids, SelfOdd;
	SFREven :- Even, LastSibling; SFROdd :- Odd, LastSibling;
	FSEven :- SFREven.invNextSibling; FSOdd :- SFROdd.invNextSibling;
	SFREven :- FSEven, Even; SFROdd :- FSEven, Odd;
	SFROdd :- FSOdd, Even; SFREven :- FSOdd, Odd;
	SFREvenKids :- SFREven.invFirstChild; SFROddKids :- SFROdd.invFirstChild;
	QUERY :- Label[S], Even;`

// TestAnalysisLeavesEngineClean: planning a run — PlanPrune, OneScan and
// SelectionSummary on a fresh engine — computes no transition and no
// top-down state in the engine (its walk runs on tables of its own), so a
// first run's own RunStats account for every transition and top-down
// state the engine then holds: Figure 6's columns count what runs compute.
// Each program runs once with one scan allowed and once forced through
// both phases, pruned, and must answer as the naive oracle does.
func TestAnalysisLeavesEngineClean(t *testing.T) {
	defer func(n, x int64) { pruneMinNodes, pruneMinExtent = n, x }(pruneMinNodes, pruneMinExtent)
	pruneMinNodes, pruneMinExtent = 1, 8
	t.Cleanup(func() { oneScanOff = false })
	ctx := context.Background()
	tr := batchDoc(t, rand.New(rand.NewSource(36)), 12)
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	regex := workload.RandomPathRegex(rand.New(rand.NewSource(1)), 6, workload.GrammarAlphabet).TMNFSource(workload.RTreebank)
	for _, src := range []string{labelSet("NP", "PP"), parityProgram, filterPrograms[0], regex} {
		prog := tmnf.MustParse(src)
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []bool{false, true} {
			label := fmt.Sprintf("%s (two scans forced: %v)", src, off)
			e := NewEngine(c, db.Names)
			PlanPrune([]*Engine{e}, ix, db.N)
			e.OneScan()
			e.SelectionSummary()
			if st := e.Stats(); st.TDStates != 0 || st.BUTransitions != 0 || st.TDTransitions != 0 {
				t.Fatalf("%s: planning left %+v in the engine", label, st)
			}
			oneScanOff = off
			var rs RunStats
			res, _, err := e.RunDiskContext(ctx, db, DiskOpts{Run: &rs})
			oneScanOff = false
			if err != nil {
				t.Fatal(err)
			}
			run, st := rs.Snapshot(), e.Stats()
			if run.BUTransitions != st.BUTransitions || run.TDTransitions != st.TDTransitions || run.TDStates != st.TDStates {
				t.Errorf("%s: the first run computed %d + %d transitions and %d top-down states, the engine holds %d + %d and %d",
					label, run.BUTransitions, run.TDTransitions, run.TDStates, st.BUTransitions, st.TDTransitions, st.TDStates)
			}
			sameAsNaive(t, prog, tr, nil, res, label)
		}
	}
}

// TestAnalysisConcurrentFirstUse races the first use of a fresh engine's
// analysis: eight runs (one worker, and two over chunks) start together
// with goroutines reading its selection summary and prune plan. Every run
// must select what a lone run of another fresh engine selects, and every
// reader must see the same summary and the same plan. The thresholds are
// lowered so the plan is not nil; xpath's test of the same name races a
// fresh Prepared over a database.
func TestAnalysisConcurrentFirstUse(t *testing.T) {
	lowerParallelKnobs(t)
	defer func(n, x int64) { pruneMinNodes, pruneMinExtent = n, x }(pruneMinNodes, pruneMinExtent)
	pruneMinNodes, pruneMinExtent = 1, 8
	ctx := context.Background()
	tr := batchDoc(t, rand.New(rand.NewSource(5)), 20)
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	vpNP := `VP :- Label[VP]; D :- VP.FirstChild; D :- D.NextSibling; QUERY :- D, Label[NP];`
	for _, src := range []string{labelSet("NP"), filterPrograms[0], vpNP} {
		c, err := Compile(tmnf.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := NewEngine(c, db.Names).RunDiskContext(ctx, db, DiskOpts{})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, db.Names)
		start := make(chan struct{})
		var wg sync.WaitGroup
		got := make([]*Result, 8)
		errs := make([]error, len(got))
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], _, errs[i] = e.RunDiskParallelContext(ctx, db, 1+i%2, DiskOpts{})
			}()
		}
		sums := make([]*SelSummary, 4)
		plans := make([]*PrunePlan, len(sums))
		for i := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				sums[i] = e.SelectionSummary()
				plans[i] = PlanPrune([]*Engine{e}, ix, db.N)
			}()
		}
		close(start)
		wg.Wait()
		for i, res := range got {
			if errs[i] != nil {
				t.Fatalf("%s: run %d: %v", src, i, errs[i])
			}
			sameSelection(t, res, want, fmt.Sprintf("%s: run %d", src, i))
		}
		for i := range sums {
			if sums[i] != sums[0] {
				t.Errorf("%s: reader %d saw another summary", src, i)
			}
			if (plans[i] == nil) != (plans[0] == nil) || plans[i] != nil && (!slices.Equal(plans[i].Extents, plans[0].Extents) || plans[i].Sub(0) != plans[0].Sub(0)) {
				t.Errorf("%s: reader %d saw another prune plan", src, i)
			}
		}
		if plans[0] == nil {
			t.Errorf("%s: no prune plan: the junk extents do not prune", src)
		}
	}
}
