package core

import (
	"context"
	"fmt"
	"math/rand"
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
	defer func(n, x int64) { PruneMinNodes, PruneMinExtent = n, x }(PruneMinNodes, PruneMinExtent)
	PruneMinNodes, PruneMinExtent = 1, 8
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
