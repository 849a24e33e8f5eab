package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// forceTwoScans turns the one-scan path off for the rest of the test.
func forceTwoScans(t *testing.T) {
	t.Helper()
	oneScanOff = true
	t.Cleanup(func() { oneScanOff = false })
}

// rootPath selects the NP children of the root: a root-path condition.
const rootPath = `R :- Root; D :- R.FirstChild; D :- D.NextSibling; QUERY :- D, Label[NP];`

// labelSet is the program selecting every node labeled one of tags.
func labelSet(tags ...string) string {
	var b strings.Builder
	for _, tag := range tags {
		fmt.Fprintf(&b, "QUERY :- Label[%s]; ", tag)
	}
	return b.String()
}

// oneScanPool draws programs the analysis must admit — label sets, the
// node-local filters among filterPrograms, //a, a program with several
// query predicates — and programs it must reject: root-path regexes, the
// filter that looks at a node's parent, and //S[NP][VP][PP], whose
// bottom-up closure outgrows the caps. admitted says which is which.
func oneScanPool(t *testing.T, rng *rand.Rand, tags []string) (pool []*tmnf.Program, admitted []bool) {
	t.Helper()
	add := func(src string, ok bool) {
		pool, admitted = append(pool, tmnf.MustParse(src)), append(admitted, ok)
	}
	for i := 0; i < 4; i++ {
		set := make([]string, 1+rng.Intn(4))
		for j := range set {
			set[j] = tags[rng.Intn(len(tags))]
		}
		add(labelSet(set...), true)
	}
	add(filterPrograms[0], true)
	add(filterPrograms[3], true)
	add(strings.ReplaceAll(descendantsLabeled, "Label[a]", "Label[NP]"), true)
	add(`Leaves :- Leaf; NPs :- Label[NP]; UpLeaf :- Leaves.invFirstChild; NPLeaves :- UpLeaf, NPs; Top :- Root;
	     QUERY :- NPLeaves; QUERY :- Top;`, true)
	add(filterPrograms[1], false)
	add(filterPrograms[2], false)
	add(rootPath, false)
	add(firstChildA, false)
	for i := 0; i < 3; i++ {
		src := workload.RandomPathRegex(rng, 3+rng.Intn(6), workload.GrammarAlphabet).TMNFSource(workload.RTreebank)
		add(src, false)
	}
	return pool, admitted
}

// TestOneScanAdmission checks the analysis's verdicts program by program:
// node-local selections are admitted, every root-path or parent condition
// is rejected.
func TestOneScanAdmission(t *testing.T) {
	names := namesWith(t, "NP", "VP", "PP", "S", "T3", "A", "C")
	pool, admitted := oneScanPool(t, rand.New(rand.NewSource(1)), []string{"NP", "VP", "T3"})
	for i, prog := range pool {
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := NewEngine(c, names).OneScan(); got != admitted[i] {
			t.Errorf("program %d: one-scan %v, want %v\n%s", i, got, admitted[i], prog)
		}
	}
}

// oneScanSources stores tr every way a run can read it: raw, a 4 KB LZ
// container, a vstore snapshot after a patch, and the tree's record image.
func oneScanSources(t *testing.T, tr *tree.Tree) []source {
	t.Helper()
	img, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(batchSources(t, tr, int64(tr.Len()-1)), source{"tree image", img})
}

// TestOneScanMatchesTwoScansAndNaive is the one-scan differential: every
// program of oneScanPool, alone and in random batches that mix admitted and
// rejected members in one lane or spill past 64 query predicates, over
// every storage form, at one and four workers, pruned and not, selects
// bit-identical nodes with the one-scan path on and forced off, and the same
// nodes as the naive oracle. A run omits phase 2 exactly when every lane's
// members are admitted.
func TestOneScanMatchesTwoScansAndNaive(t *testing.T) {
	lowerParallelKnobs(t)
	defer func(n, x int64) { PruneMinNodes, PruneMinExtent = n, x }(PruneMinNodes, PruneMinExtent)
	PruneMinNodes, PruneMinExtent = 1, 8
	t.Cleanup(func() { oneScanOff = false })
	ctx := context.Background()
	rng := rand.New(rand.NewSource(32))
	oneScans, pruned := 0, 0
	for iter := 0; iter < 2; iter++ {
		tr := batchDoc(t, rng, 6+rng.Intn(8))
		pool, admitted := oneScanPool(t, rng, []string{"NP", "VP", "PP", "S", "T1", "T3", "T7", "FILE"})
		comps := make([]*Compiled, len(pool))
		for i, prog := range pool {
			var err error
			if comps[i], err = Compile(prog); err != nil {
				t.Fatal(err)
			}
		}
		for _, src := range oneScanSources(t, tr) {
			db := src.db
			// Batches: random draws, and 70 label programs (two lanes of
			// ≤ 64 predicates) with the last member a rejected one.
			batches := [][]int{}
			for b := 0; b < 3; b++ {
				batch := make([]int, 2+rng.Intn(6))
				for m := range batch {
					batch[m] = rng.Intn(len(pool))
				}
				batches = append(batches, batch)
			}
			wide := make([]int, 70)
			for m := range wide {
				wide[m] = rng.Intn(4) // the label sets
			}
			batches = append(batches, wide, append(wide[:69:69], len(pool)-1))
			for i := range pool {
				batches = append(batches, []int{i})
			}

			for _, batch := range batches {
				for _, workers := range []int{1, 4} {
					for _, noPrune := range []bool{false, true} {
						label := fmt.Sprintf("iter %d, %s, members %v, %d workers, noprune %v", iter, src.name, batch, workers, noPrune)
						members := func() []BatchMember {
							bms := make([]BatchMember, len(batch))
							for m, i := range batch {
								bms[m] = BatchMember{E: NewEngine(comps[i], db.Names), AuxInSlot: -1, AuxOutSlot: -1}
							}
							return bms
						}
						opts := DiskBatchOpts{DiskOpts: DiskOpts{NoPrune: noPrune}}
						bms := members()
						got, _, ds, err := RunDiskBatchParallel(ctx, db, workers, bms, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						oneScan := true
						for _, i := range batch {
							oneScan = oneScan && admitted[i]
						}
						if (ds.OneScan == 1) != oneScan || (ds.OneScan == 1) != (twoScanLanes(bms) == 0) {
							t.Fatalf("%s: one-scan %d, want %v", label, ds.OneScan, oneScan)
						}
						oneScans += ds.OneScan
						if ds.Phase1.SkippedBytes > 0 {
							pruned++
						}
						oneScanOff = true
						want, _, wantDS, err := RunDiskBatchParallel(ctx, db, workers, members(), opts)
						oneScanOff = false
						if err != nil {
							t.Fatalf("%s, two scans: %v", label, err)
						}
						if wantDS.OneScan != 0 || wantDS.Phase1 != ds.Phase1 {
							t.Fatalf("%s: phase 1 %+v, forced two scans %+v", label, ds.Phase1, wantDS.Phase1)
						}
						for m, i := range batch {
							sameSelection(t, got[m], want[m], fmt.Sprintf("%s, member %d", label, m))
							sameAsNaive(t, pool[i], tr, nil, got[m], fmt.Sprintf("%s, member %d", label, m))
						}
					}
				}
			}
		}
	}
	if oneScans == 0 || pruned == 0 {
		t.Fatalf("%d one-scan runs, %d of them pruned: the test no longer reaches the one-scan path", oneScans, pruned)
	}
}

// TestOneScanRootWithSecondChild runs an admitted program over a tree whose
// root has a second child — a shape the analysis leaves out of its root
// configurations: here the root's state (an NP whose sibling chain holds a
// PP) is one no analysed root has, so the run must notice it, start over
// with two scans and answer as the oracle does.
func TestOneScanRootWithSecondChild(t *testing.T) {
	names := namesWith(t, "NP", "PP")
	np, _ := names.Lookup("NP")
	pp, _ := names.Lookup("PP")
	tr := tree.New(names)
	root := tr.AddNode(np)
	tr.SetFirst(root, tr.AddNode(np))
	tr.SetSecond(root, tr.AddNode(pp))
	prog := tmnf.MustParse(filterPrograms[0])
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, names)
	if !e.OneScan() {
		t.Fatal("//NP[PP] is not admitted")
	}
	img, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, ds, err := e.RunDiskContext(context.Background(), img, DiskOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.OneScan != 0 {
		t.Fatalf("one-scan %d over a root with a second child", ds.OneScan)
	}
	sameAsNaive(t, prog, tr, nil, res, "root with a second child")
}
