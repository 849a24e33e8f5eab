package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// TestPruneAnalysisAdmission checks which programs the static analysis
// admits for pruning: label-selective queries (including caterpillar
// paths) converge to a single dead-subtree state with no reachable
// selection, while label-independent or structure-sensitive queries must
// be refused — their answers genuinely depend on subtree shape.
func TestPruneAnalysisAdmission(t *testing.T) {
	names := tree.NewNames()
	for _, n := range []string{"hit", "item", "name", "flag"} {
		if _, err := names.Intern(n); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"label", `QUERY :- Label[hit];`, true},
		{"path", `QUERY :- V.Label[item].FirstChild.NextSibling*.Label[name];`, true},
		{"neg-label", `QUERY :- Label[hit], -Label[flag];`, true},
		{"all-leaves", `QUERY :- Leaf, -Text;`, false},
		{"structural", `QUERY :- V.Label[hit].SecondChild.HasFirstChild;`, false},
		// Selecting the root alone is prunable: extents never contain
		// node 0, so no dead subtree can hold the selection.
		{"root", `QUERY :- Root;`, true},
	}
	for _, tc := range cases {
		p := tmnf.MustParse(tc.src)
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := NewEngine(c, names)
		a := e.analysis()
		if a.pruneOK != tc.ok {
			t.Errorf("%s: analysis ok=%v, want %v", tc.name, a.pruneOK, tc.ok)
		}
		if a2 := e.analysis(); a2 != a {
			t.Errorf("%s: analysis not cached", tc.name)
		}
	}
}

// TestPruneAnalysisRootSafety: the Root unary must block pruning — the
// analysis models extents with IsRoot false, and while the planner never
// prunes the extent at node 0, a Root-dependent program can still select
// everywhere (QUERY :- -Root selects every non-root node, including all
// of any dead subtree).
func TestPruneAnalysisNegRoot(t *testing.T) {
	p := tmnf.MustParse(`QUERY :- -Root;`)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, tree.NewNames())
	if e.analysis().pruneOK {
		t.Fatal("analysis admitted a query that selects every non-root node")
	}
}

// TestPruneSplit checks the distribution of plan extents over a task
// frontier: swallowing, nesting, and leader-level holes.
func TestPruneSplit(t *testing.T) {
	ext := func(root, size int64) storage.Extent { return storage.Extent{Root: root, Size: size} }
	tasks := []storage.Extent{ext(10, 20), ext(40, 10), ext(60, 30), ext(95, 5)}
	plan := []storage.Extent{
		ext(2, 5),   // before every task: leader hole
		ext(15, 5),  // strictly inside task [10,30)
		ext(35, 20), // swallows task [40,50)
		ext(61, 9),  // inside task [60,90)
		ext(80, 10), // inside task [60,90)
		ext(95, 5),  // equals task [95,100): swallowed
	}
	kept, inner, outer := splitPrune(tasks, plan)
	if len(kept) != 2 || kept[0] != ext(10, 20) || kept[1] != ext(60, 30) {
		t.Fatalf("kept = %v", kept)
	}
	if len(inner) != 2 || len(inner[0]) != 1 || inner[0][0] != ext(15, 5) ||
		len(inner[1]) != 2 || inner[1][0] != ext(61, 9) || inner[1][1] != ext(80, 10) {
		t.Fatalf("inner = %v", inner)
	}
	if len(outer) != 3 || outer[0] != ext(2, 5) || outer[1] != ext(35, 20) || outer[2] != ext(95, 5) {
		t.Fatalf("outer = %v", outer)
	}

	exts, taskOf := mergeSkipLists(kept, outer)
	wantExts := []storage.Extent{ext(2, 5), ext(10, 20), ext(35, 20), ext(60, 30), ext(95, 5)}
	wantTask := []int{-1, 0, -1, 1, -1}
	if len(exts) != len(wantExts) {
		t.Fatalf("merged = %v", exts)
	}
	for i := range exts {
		if exts[i] != wantExts[i] || taskOf[i] != wantTask[i] {
			t.Fatalf("merged[%d] = %v/%d, want %v/%d", i, exts[i], taskOf[i], wantExts[i], wantTask[i])
		}
	}

	// No plan: everything stays a task.
	kept2, inner2, outer2 := splitPrune(tasks, nil)
	if len(kept2) != len(tasks) || len(outer2) != 0 {
		t.Fatalf("nil plan changed the frontier: %v / %v", kept2, outer2)
	}
	for i := range inner2 {
		if len(inner2[i]) != 0 {
			t.Fatalf("nil plan produced inner extents: %v", inner2)
		}
	}
}

// TestPrunePlanSelectsMaximalDisjointExtents checks the planner picks
// maximal label-disjoint index extents, never the root, nothing below
// the size floor, and respects the engines' union live set.
func TestPrunePlanSelectsMaximalDisjointExtents(t *testing.T) {
	names := tree.NewNames()
	for _, n := range []string{"hit", "other"} {
		if _, err := names.Intern(n); err != nil {
			t.Fatal(err)
		}
	}
	hit, _ := names.Lookup("hit")
	other, _ := names.Lookup("other")

	mk := func(src string) *Engine {
		c, err := Compile(tmnf.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(c, names)
	}
	eHit := mk(`QUERY :- Label[hit];`)
	eOther := mk(`QUERY :- Label[other];`)

	sig := func(labels ...tree.Label) (s storage.LabelSig) {
		for _, l := range labels {
			s.Add(uint16(l))
		}
		return s
	}
	defer func(n, x int64) { pruneMinNodes, pruneMinExtent = n, x }(pruneMinNodes, pruneMinExtent)
	pruneMinNodes, pruneMinExtent = 100, 10

	// Synthetic laminar index over 1000 nodes: a dead parent with a dead
	// child (only the parent should be picked), a live extent, a
	// too-small dead extent, and a dead extent containing `other`.
	entries := []storage.IndexEntry{
		{V: 0, Size: 1000, FirstSize: 499, Labels: sig(hit, other, 400)},
		{V: 1, Size: 400, FirstSize: 200, Labels: sig(400)},        // label 400 untested: dead for both queries
		{V: 2, Size: 200, FirstSize: 0, Labels: sig(400)},          // nested in [1,401): must not double-count
		{V: 500, Size: 100, FirstSize: 0, Labels: sig(hit)},        // live for eHit
		{V: 700, Size: 5, FirstSize: 0, Labels: sig(401)},          // below the size floor
		{V: 800, Size: 150, FirstSize: 0, Labels: sig(other, 402)}, // live for eOther only
	}
	ix, err := storage.NewIndex(1000, entries)
	if err != nil {
		t.Fatal(err)
	}

	plan := PlanPrune([]*Engine{eHit}, ix, 1000)
	if plan == nil {
		t.Fatal("no plan for the hit query")
	}
	want := []storage.Extent{{Root: 1, Size: 400}, {Root: 800, Size: 150}}
	if len(plan.Extents) != len(want) || plan.Extents[0] != want[0] || plan.Extents[1] != want[1] {
		t.Fatalf("hit plan extents = %v, want %v", plan.Extents, want)
	}
	if plan.Nodes != 550 {
		t.Fatalf("hit plan nodes = %d, want 550", plan.Nodes)
	}

	// Batched with the other query, the union live set shrinks the plan.
	plan2 := PlanPrune([]*Engine{eHit, eOther}, ix, 1000)
	if plan2 == nil || len(plan2.Extents) != 1 || plan2.Extents[0] != want[0] {
		t.Fatalf("joint plan = %+v, want just %v", plan2, want[0])
	}

	// A foreign index (wrong node count) must never produce a plan.
	if p := PlanPrune([]*Engine{eHit}, ix, 999); p != nil {
		t.Fatal("planner accepted a foreign index")
	}
}

// doc is a binary-tree shape for the prune edge cases: a labelled node
// with optional first and second subtrees, or (junk > 0) a random subtree
// of that many nodes carrying only labels no test query mentions — an
// extent every plan may skip.
type doc struct {
	label         string
	junk          int
	first, second *doc
}

// build appends the shape to tr in preorder and returns its root.
func (d *doc) build(tr *tree.Tree, rng *rand.Rand) tree.NodeID {
	label, firstJunk, secondJunk := d.label, 0, 0
	if d.junk > 0 {
		label = []string{"j0", "j1", "j2"}[rng.Intn(3)]
		firstJunk = rng.Intn(d.junk)
		secondJunk = d.junk - 1 - firstJunk
	}
	v := tr.AddNode(tr.Names().MustIntern(label))
	switch {
	case firstJunk > 0:
		tr.SetFirst(v, (&doc{junk: firstJunk}).build(tr, rng))
	case d.first != nil:
		tr.SetFirst(v, d.first.build(tr, rng))
	}
	switch {
	case secondJunk > 0:
		tr.SetSecond(v, (&doc{junk: secondJunk}).build(tr, rng))
	case d.second != nil:
		tr.SetSecond(v, d.second.build(tr, rng))
	}
	return v
}

// TestPruneGapSwitchEdges puts pruned extents where the leader's glue
// scan switches its per-gap state and aux readers at an edge — no glue
// between two extents, none after the last, none but the root — and holds
// every disk entry point (scalar and batch; one worker, four workers with
// an empty frontier, four workers with chunks) to the unpruned answer,
// the unpruned aux output and the plan's exact byte accounting.
func TestPruneGapSwitchEdges(t *testing.T) {
	lowerParallelKnobs(t)
	defer func(n, x int64) { pruneMinNodes, pruneMinExtent = n, x }(pruneMinNodes, pruneMinExtent)
	pruneMinNodes, pruneMinExtent = 1, 8
	t.Cleanup(func() { oneScanOff = false })

	hit := func(first, second *doc) *doc { return &doc{label: "hit", first: first, second: second} }
	junk := func(n int) *doc { return &doc{junk: n} }
	ext := func(root, size int64) storage.Extent { return storage.Extent{Root: root, Size: size} }
	cases := []struct {
		name string
		doc  *doc
		plan []storage.Extent
	}{
		{"everything but the root", hit(junk(40), nil), []storage.Extent{ext(1, 40)}},
		{"two adjacent extents, the second ending at N",
			&doc{label: "r", first: hit(junk(20), junk(30))}, []storage.Extent{ext(2, 20), ext(22, 30)}},
		{"an extent starting at node 1", hit(junk(20), hit(hit(nil, nil), nil)), []storage.Extent{ext(1, 20)}},
		{"glue before, between and after",
			&doc{label: "r", first: hit(junk(20), hit(junk(25), hit(nil, nil)))}, []storage.Extent{ext(2, 20), ext(23, 25)}},
		{"an extent ending at N after glue", hit(hit(nil, hit(nil, junk(30))), nil), []storage.Extent{ext(3, 30)}},
	}
	progs := []*tmnf.Program{tmnf.MustParse(`QUERY :- Label[hit];`), tmnf.MustParse(`QUERY :- Label[r];`)}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))

	for _, tc := range cases {
		names := tree.NewNames()
		for _, n := range []string{"hit", "r", "j0", "j1", "j2"} {
			names.MustIntern(n)
		}
		tr := tree.New(names)
		tc.doc.build(tr, rng)
		if err := tr.CheckPreorder(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dir := t.TempDir()
		db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ix, err := db.Index(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		var planNodes int64
		for _, x := range tc.plan {
			planNodes += x.Size
		}

		// checkRows holds an entry point — run executes it and checks the
		// answer — to its own unpruned run in every row: the same aux output,
		// a profile in which each phase read or skipped every byte once and
		// skipped exactly the plan's nodes, credited once per member, and at
		// four workers with an empty frontier the very profile of one worker.
		// The label programs' records decide their bottom-up states, so every
		// row runs as one forward scan — phase 2's holes alone; over a root
		// with a second child, a shape the forward verdict leaves out, it
		// starts over with two scans — and once more with two scans forced,
		// phase 1's holes too.
		checkRows := func(label string, members, pruned int64, run func(workers int, noPrune bool) (*DiskStats, *RunStats, []byte)) {
			t.Helper()
			var refAux []byte
			for _, twoScans := range []bool{false, true} {
				oneScanOff = twoScans
				label := fmt.Sprintf("%s, two scans forced %v", label, twoScans)
				check := func(label string, pruned int64, ds *DiskStats, rs *RunStats, masks []byte) {
					t.Helper()
					if refAux == nil {
						refAux = masks
					} else if !bytes.Equal(masks, refAux) {
						t.Fatalf("%s: aux output differs from the unpruned run's", label)
					}
					phases := []storage.ScanStats{ds.Phase1, ds.Phase2}
					if !twoScans && !tr.HasSecond(0) {
						if ds.Phase1 != (storage.ScanStats{}) || ds.StateBytes != 0 || ds.OneScan != 1 {
							t.Fatalf("%s: phase 1 %+v, %d state bytes, one-scan %d: want one forward scan", label, ds.Phase1, ds.StateBytes, ds.OneScan)
						}
						phases = phases[1:]
					}
					for _, ph := range phases {
						if ph.SkippedBytes != pruned*storage.NodeSize || ph.Bytes+ph.SkippedBytes != db.N*storage.NodeSize || ph.Nodes != db.N {
							t.Fatalf("%s: phase profile %+v, want %d of %d nodes skipped", label, ph, pruned, db.N)
						}
					}
					if got := rs.Snapshot().PrunedNodes; got != members*pruned {
						t.Fatalf("%s: run credits %d pruned nodes, want %d per member", label, got, pruned)
					}
				}
				ds, rs, out := run(1, true)
				check(label+", unpruned", 0, ds, rs, out)
				seqDS, seqRS, out := run(1, false)
				check(label+", 1 worker", pruned, seqDS, seqRS, out)
				emptyFrontier(func() {
					ds, rs, out := run(4, false)
					check(label+", 4 workers, empty frontier", pruned, ds, rs, out)
					sameProfile(t, label+", 4 workers, empty frontier vs 1 worker", ds, seqDS, rs, seqRS)
				})
				ds, rs, out = run(4, false)
				check(label+", 4 workers", pruned, ds, rs, out)
			}
			oneScanOff = false
		}

		// Scalar entry point, per program.
		for pi, prog := range progs {
			c, err := Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			// The case is the first program's plan; for the second, hit
			// nodes are junk too, and its plan is whatever that leaves.
			plan := PlanPrune([]*Engine{NewEngine(c, db.Names)}, ix, db.N)
			if plan == nil || (pi == 0 && !slices.Equal(plan.Extents, tc.plan)) {
				t.Fatalf("%s: plan %+v, want extents %v", tc.name, plan, tc.plan)
			}
			want, err := NewEngine(c, db.Names).RunContext(ctx, tr, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sameAsNaive(t, prog, tr, nil, want, tc.name+": in-memory reference")
			checkRows(tc.name, 1, plan.Nodes, func(workers int, noPrune bool) (*DiskStats, *RunStats, []byte) {
				rs := &RunStats{}
				out := sidecar(t, db, 1)
				members, opts := chained(NewEngine(c, db.Names), nil, out, 1, DiskOpts{NoPrune: noPrune, Run: rs})
				res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, members, opts)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				sameResults(t, prog, tr.Len(), res[0], want, tc.name)
				return ds, rs, masksOf(t, db, out, 1)
			})
		}

		// Batch entry point, both programs sharing the scans: junk carries
		// neither label, so the joint plan is the same extents.
		wants := make([]*Result, len(progs))
		for i, prog := range progs {
			c, err := Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			if wants[i], err = NewEngine(c, db.Names).RunContext(ctx, tr, RunOpts{}); err != nil {
				t.Fatal(err)
			}
			sameAsNaive(t, prog, tr, nil, wants[i], tc.name+": in-memory reference")
		}
		checkRows(tc.name+", batch", 2, planNodes, func(workers int, noPrune bool) (*DiskStats, *RunStats, []byte) {
			members := batchMembers(t, progs, db.Names)
			for m := range members {
				members[m].AuxOutSlot, members[m].AuxOutBit = m, uint8(m)
			}
			rs := &RunStats{}
			out := sidecar(t, db, len(members))
			res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, members,
				DiskBatchOpts{DiskOpts: DiskOpts{NoPrune: noPrune, Run: rs}, AuxOut: out, AuxOutStride: len(members)})
			if err != nil {
				t.Fatalf("%s: batch: %v", tc.name, err)
			}
			for i, prog := range progs {
				sameResults(t, prog, tr.Len(), res[i], wants[i], tc.name+", batch")
			}
			return ds, rs, masksOf(t, db, out, len(members))
		})
	}
}
