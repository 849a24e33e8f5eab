package arb_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"arb"
	"arb/internal/core"
	"arb/internal/storage"
)

// buildPruneDoc builds a library document with alternating sections:
// "archive" sections full of junk elements and filler text (dead for
// catalog queries, live for //junk), and "catalog" sections of
// item/name/flag structure (the reverse). Each section is thousands of
// nodes, so whole sections are index extents the pruner can seek past
// with the default thresholds.
func buildPruneDoc(tb testing.TB, sections, perSection int) *arb.Tree {
	tb.Helper()
	b := arb.NewTreeBuilder()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(b.Begin("library"))
	for s := 0; s < sections; s++ {
		if s%2 == 0 {
			must(b.Begin("archive"))
			for j := 0; j < perSection; j++ {
				must(b.Begin("junk"))
				must(b.Text([]byte(fmt.Sprintf("filler-%05d-%08x", j, uint32(j)*2654435761))))
				must(b.End())
			}
			must(b.End())
		} else {
			must(b.Begin("catalog"))
			for i := 0; i < perSection; i++ {
				must(b.Begin("item"))
				must(b.Begin("name"))
				must(b.Text([]byte(fmt.Sprintf("product-%06d", i))))
				must(b.End())
				if i%3 != 0 {
					must(b.Begin("flag"))
					must(b.Text([]byte("y")))
					must(b.End())
				}
				must(b.End())
			}
			must(b.End())
		}
	}
	must(b.End())
	t, err := b.Tree()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// pruneQueries returns the differential corpus: queries for which
// pruning provably fires (label-selective, both directions), a
// multi-pass not(..) query (pass 0 prunes, the aux-reading main pass
// must not), and a label-independent query the analysis must refuse.
func pruneQueries(t testing.TB) []any {
	t.Helper()
	prog := func(src string) *arb.Program {
		p, err := arb.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	xq := func(src string) *arb.XPathQuery {
		q, err := arb.ParseXPath(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return []any{
		prog(`QUERY :- Label[junk];`),
		xq(`//item/name`),
		xq(`//item[flag]`),
		xq(`//item[not(flag)]/name`),
		prog(`QUERY :- Leaf, -Text;`),
	}
}

// prepare compiles one corpus item against a session.
func prepare(t testing.TB, sess *arb.Session, item any) *arb.PreparedQuery {
	t.Helper()
	var pq *arb.PreparedQuery
	var err error
	switch q := item.(type) {
	case *arb.Program:
		pq, err = sess.Prepare(q)
	case *arb.XPathQuery:
		pq, err = sess.PrepareXPath(q)
	default:
		t.Fatalf("bad corpus item %T", item)
	}
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

// TestPruneDifferentialStrategies is the prune-vs-noprune differential
// across every strategy: for each corpus query, the pruned execution
// must select bit-identical nodes to the unpruned one on memory, disk,
// parallel memory and parallel disk — and on the disk paths of the
// prunable queries, the profile must show bytes actually skipped while
// Bytes + SkippedBytes stays exactly one database size per phase.
func TestPruneDifferentialStrategies(t *testing.T) {
	tr := buildPruneDoc(t, 8, 300)
	if tr.Len() < 1<<15 {
		t.Fatalf("prune doc has %d nodes, below the parallel threshold", tr.Len())
	}
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "library"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dataBytes := db.N * storage.NodeSize

	memSess := arb.NewSession(tr)
	diskSess := arb.NewDBSession(db)

	for qi, item := range pruneQueries(t) {
		memPQ := prepare(t, memSess, item)
		diskPQ := prepare(t, diskSess, item)
		// The unpruned memory run is the reference, checked against the
		// oracles.
		want := selectedOf(t, memPQ, arb.ExecOpts{NoPrune: true})
		sameSelected(t, "oracle", qi, want, oracleSelected(tr, item)[0])

		type strat struct {
			name string
			pq   *arb.PreparedQuery
			opts arb.ExecOpts
			disk bool
		}
		strats := []strat{
			{"memory", memPQ, arb.ExecOpts{}, false},
			{"memory-parallel", memPQ, arb.ExecOpts{Workers: 4}, false},
			{"disk", diskPQ, arb.ExecOpts{}, true},
			{"disk-parallel", diskPQ, arb.ExecOpts{Workers: 4}, true},
			{"disk-noprune", diskPQ, arb.ExecOpts{NoPrune: true}, true},
			{"disk-parallel-noprune", diskPQ, arb.ExecOpts{Workers: 4, NoPrune: true}, true},
		}
		for _, s := range strats {
			s.opts.Stats = true
			res, prof, err := s.pq.Exec(context.Background(), s.opts)
			if err != nil {
				t.Fatalf("query %d %s: %v", qi, s.name, err)
			}
			got := res.Selected(s.pq.Queries()[0])
			if len(got) != len(want) {
				t.Fatalf("query %d %s: %d nodes selected, want %d", qi, s.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %d %s: selected[%d] = %d, want %d", qi, s.name, i, got[i], want[i])
				}
			}
			if s.disk {
				// Every phase that ran covers the database exactly once,
				// read or skipped, across all passes of the execution:
				// phase 1 in every pass, phase 2 in those that did not
				// omit it.
				passes, twoScan := int64(prof.Passes), int64(prof.Passes-prof.Disk.OneScan)
				p1 := prof.Disk.Phase1.Bytes + prof.Disk.Phase1.SkippedBytes
				p2 := prof.Disk.Phase2.Bytes + prof.Disk.Phase2.SkippedBytes
				if p1 != passes*dataBytes || p2 != twoScan*dataBytes {
					t.Fatalf("query %d %s: phase coverage %d/%d, want %d/%d", qi, s.name, p1, p2, passes*dataBytes, twoScan*dataBytes)
				}
				if s.opts.NoPrune && prof.SkippedBytes() != 0 {
					t.Fatalf("query %d %s: NoPrune run skipped %d bytes", qi, s.name, prof.SkippedBytes())
				}
			}
			// The prunable queries must actually prune on the default
			// paths (query 4 is label-independent by construction).
			prunable := qi < 4
			if !s.opts.NoPrune {
				if prunable && prof.Engine.PrunedNodes == 0 {
					t.Fatalf("query %d %s: expected pruning to fire", qi, s.name)
				}
				if !prunable && prof.Engine.PrunedNodes != 0 {
					t.Fatalf("query %d %s: label-independent query pruned %d nodes", qi, s.name, prof.Engine.PrunedNodes)
				}
				if s.disk && prunable && prof.SkippedBytes() == 0 {
					t.Fatalf("query %d %s: expected skipped bytes", qi, s.name)
				}
			}
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestPruneBatchDifferential checks shared-scan batches: a batch of
// catalog-only queries prunes the archive sections on both backends and
// at both worker counts, selecting exactly what the unpruned batch does;
// a mixed batch (including //junk, live everywhere in archives) must
// simply stop pruning, not misselect.
func TestPruneBatchDifferential(t *testing.T) {
	tr := buildPruneDoc(t, 8, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "library"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	memSess := arb.NewSession(tr)
	diskSess := arb.NewDBSession(db)
	catalogOnly := pruneQueries(t)[1:4] // //item/name, //item[flag], //item[not(flag)]/name
	mixed := pruneQueries(t)

	for _, tc := range []struct {
		name        string
		items       []any
		wantPruning bool
	}{
		{"catalog-only", catalogOnly, true},
		{"mixed", mixed, false},
	} {
		for _, backend := range []struct {
			name string
			sess *arb.Session
			disk bool
		}{{"memory", memSess, false}, {"disk", diskSess, true}} {
			pb, err := backend.sess.PrepareBatch(tc.items...)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, _, err := pb.Exec(context.Background(), arb.ExecOpts{NoPrune: true})
			if err != nil {
				t.Fatal(err)
			}
			for m, item := range tc.items {
				for qi, sel := range oracleSelected(tr, item) {
					sameSelected(t, tc.name+"/"+backend.name+" oracle", m, wantRes[m].Selected(pb.Queries(m)[qi]), sel)
				}
			}
			for _, workers := range []int{1, 4} {
				res, prof, err := pb.Exec(context.Background(), arb.ExecOpts{Workers: workers, Stats: true})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, backend.name, workers, err)
				}
				for m := range res {
					for _, q := range pb.Queries(m) {
						got, want := res[m].Selected(q), wantRes[m].Selected(q)
						if len(got) != len(want) {
							t.Fatalf("%s/%s workers=%d member %d: %d selected, want %d",
								tc.name, backend.name, workers, m, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s/%s workers=%d member %d: selected[%d]=%d, want %d",
									tc.name, backend.name, workers, m, i, got[i], want[i])
							}
						}
					}
				}
				if tc.wantPruning && prof.Engine.PrunedNodes == 0 {
					t.Fatalf("%s/%s workers=%d: expected batch pruning to fire", tc.name, backend.name, workers)
				}
				if backend.disk && tc.wantPruning && prof.SkippedBytes() == 0 {
					t.Fatalf("%s/%s workers=%d: expected skipped bytes", tc.name, backend.name, workers)
				}
			}
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestPruneRandomDifferential is the property test: random clustered
// trees × random label queries, executed pruned and unpruned on every
// strategy, must agree node-for-node. Thresholds are lowered so pruning
// fires on the small random documents.
func TestPruneRandomDifferential(t *testing.T) {
	defer func(n, x int64) { core.PruneMinNodes, core.PruneMinExtent = n, x }(core.PruneMinNodes, core.PruneMinExtent)
	core.PruneMinNodes, core.PruneMinExtent = 512, 64

	rng := rand.New(rand.NewSource(1234))
	tags := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 12; trial++ {
		// A random clustered document: sections of a single tag each, so
		// label-disjoint subtrees genuinely exist.
		b := arb.NewTreeBuilder()
		if err := b.Begin("root"); err != nil {
			t.Fatal(err)
		}
		sections := 3 + rng.Intn(5)
		for s := 0; s < sections; s++ {
			tag := tags[rng.Intn(len(tags))]
			if err := b.Begin(tag + "s"); err != nil {
				t.Fatal(err)
			}
			for j, nj := 0, 50+rng.Intn(200); j < nj; j++ {
				if err := b.Begin(tag); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					if err := b.Text([]byte("xy")); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.End(); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.End(); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.End(); err != nil {
			t.Fatal(err)
		}
		tr, err := b.Tree()
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		db, err := arb.CreateDBFromTree(filepath.Join(dir, "doc"), tr)
		if err != nil {
			t.Fatal(err)
		}

		tag := tags[rng.Intn(len(tags))]
		var item any
		if rng.Intn(2) == 0 {
			item, err = arb.ParseProgram(fmt.Sprintf(`QUERY :- Label[%s];`, tag))
		} else {
			item, err = arb.ParseXPath(fmt.Sprintf(`//%ss/%s`, tag, tag))
		}
		if err != nil {
			t.Fatal(err)
		}

		memSess := arb.NewSession(tr)
		diskSess := arb.NewDBSession(db)
		memPQ := prepare(t, memSess, item)
		diskPQ := prepare(t, diskSess, item)
		want := selectedOf(t, memPQ, arb.ExecOpts{NoPrune: true})
		sameSelected(t, fmt.Sprintf("trial %d oracle", trial), 0, want, oracleSelected(tr, item)[0])
		for name, sel := range map[string][]arb.NodeID{
			"memory":        selectedOf(t, memPQ, arb.ExecOpts{}),
			"memory-par":    selectedOf(t, memPQ, arb.ExecOpts{Workers: 3}),
			"disk":          selectedOf(t, diskPQ, arb.ExecOpts{}),
			"disk-par":      selectedOf(t, diskPQ, arb.ExecOpts{Workers: 3}),
			"disk-noprune":  selectedOf(t, diskPQ, arb.ExecOpts{NoPrune: true}),
			"disk-par-np":   selectedOf(t, diskPQ, arb.ExecOpts{Workers: 3, NoPrune: true}),
			"memory-np-par": selectedOf(t, memPQ, arb.ExecOpts{Workers: 3, NoPrune: true}),
		} {
			if len(sel) != len(want) {
				t.Fatalf("trial %d %s (%v): %d selected, want %d", trial, name, item, len(sel), len(want))
			}
			for i := range sel {
				if sel[i] != want[i] {
					t.Fatalf("trial %d %s: selected[%d]=%d, want %d", trial, name, i, sel[i], want[i])
				}
			}
		}
		db.Close()
		assertOnlyDatabaseFiles(t, dir)
	}
}

// TestPruneCancelNoLeak checks cancellation during pruned executions:
// wherever the cancel lands — including mid-skip — the result is either
// clean or ctx.Err(), and no state file or aux sidecar survives.
func TestPruneCancelNoLeak(t *testing.T) {
	tr := buildPruneDoc(t, 8, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "library"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	pq := prepare(t, sess, pruneQueries(t)[3]) // multi-pass: aux sidecars in play
	want, err := pq.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		workers := 1 + (i%2)*3
		go func() {
			res, _, err := pq.Exec(ctx, arb.ExecOpts{Workers: workers})
			if err == nil && res.Count(pq.Queries()[0]) != want {
				err = fmt.Errorf("selected %d nodes, want %d", res.Count(pq.Queries()[0]), want)
			}
			done <- err
		}()
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: error %v, want nil or context.Canceled", i, err)
		}
		assertOnlyDatabaseFiles(t, dir)
	}
}
