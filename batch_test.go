package arb_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"arb"
	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/tree"
	"arb/internal/xpath"
)

// batchCorpus returns the mixed query corpus the batch tests run over the
// catalog document: TMNF programs (including caterpillar paths and a
// multi-predicate program) and Core XPath queries, two of them multi-pass
// not(..) queries.
func batchCorpus(t testing.TB) []any {
	t.Helper()
	prog := func(src string, queries ...string) *arb.Program {
		p, err := arb.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(queries) > 0 {
			if err := p.SetQueries(queries...); err != nil {
				t.Fatal(err)
			}
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
		prog(`QUERY :- Label[name];`),
		prog(`QUERY :- Label[item];`),
		prog(`QUERY :- V.Label[item].FirstChild.NextSibling*.Label[flag];`),
		prog(`QUERY :- Leaf, -Text;`),
		prog(`QUERY :- Label[flag]; QUERY2 :- Label[catalog];`, "QUERY", "QUERY2"),
		xq(`//item/name`),
		xq(`//item[flag]`),
		xq(`//item[not(flag)]`),
		xq(`//item[not(flag)]/name`),
	}
}

// scalarSelected runs every corpus query through its own PreparedQuery
// and returns, per member and per query predicate, the selected node ids.
func scalarSelected(t testing.TB, sess *arb.Session, corpus []any) [][][]arb.NodeID {
	t.Helper()
	out := make([][][]arb.NodeID, len(corpus))
	for i, item := range corpus {
		var pq *arb.PreparedQuery
		var err error
		switch q := item.(type) {
		case *arb.Program:
			pq, err = sess.Prepare(q)
		case *arb.XPathQuery:
			pq, err = sess.PrepareXPath(q)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pq.Exec(context.Background(), arb.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range pq.Queries() {
			out[i] = append(out[i], res.Selected(q))
		}
	}
	return out
}

// oracleSelected returns what the oracles select for a corpus item, per
// query predicate: the naive fixpoint evaluator for TMNF programs, the
// direct XPath interpreter for XPath queries — implementations that share
// nothing with the one driver every session, in memory or on disk, runs.
func oracleSelected(tr *arb.Tree, item any) [][]arb.NodeID {
	switch q := item.(type) {
	case *arb.Program:
		oracle := naive.Evaluate(tr, q)
		out := make([][]arb.NodeID, len(q.Queries()))
		for qi, pred := range q.Queries() {
			out[qi] = oracle.Selected(pred)
		}
		return out
	case *arb.XPathQuery:
		var sel []arb.NodeID
		for v, ok := range xpath.NewInterp(tr).Eval(q.Path) {
			if ok {
				sel = append(sel, arb.NodeID(v))
			}
		}
		return [][]arb.NodeID{sel}
	}
	return nil
}

// checkOracles compares per-item reference selections with the oracles.
func checkOracles(t testing.TB, tr *arb.Tree, items []any, want [][][]arb.NodeID) {
	t.Helper()
	for i, item := range items {
		for qi, sel := range oracleSelected(tr, item) {
			sameSelected(t, "oracle", i, want[i][qi], sel)
		}
	}
}

func sameSelected(t testing.TB, label string, member int, got, want []arb.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s member %d: selected %d nodes, want %d", label, member, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s member %d: selected node %d is %d, want %d", label, member, j, got[j], want[j])
		}
	}
}

// checkBatchAgainst compares a batch execution's results with the scalar
// reference, predicate by predicate.
func checkBatchAgainst(t testing.TB, label string, pb *arb.PreparedBatch, opts arb.ExecOpts, want [][][]arb.NodeID) {
	t.Helper()
	res, _, err := pb.Exec(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res) != len(want) {
		t.Fatalf("%s: %d results for %d members", label, len(res), len(want))
	}
	for i := range res {
		for qi, q := range pb.Queries(i) {
			sameSelected(t, label, i, res[i].Selected(q), want[i][qi])
		}
	}
}

// TestBatchCancel checks batch cancellation: an already-cancelled context
// aborts sequential, parallel and multi-pass batch executions with
// ctx.Err(), and neither the state file nor any aux sidecar
// survives — on cancellation mid-scan either.
func TestBatchCancel(t *testing.T) {
	tr := buildCatalog(t, 1200)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	pb, err := sess.PrepareBatch(batchCorpus(t)...)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, opts := range map[string]arb.ExecOpts{
		"sequential": {},
		"parallel":   {Workers: 4},
	} {
		if _, _, err := pb.Exec(ctx, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, err)
		}
	}
	assertOnlyDatabaseFiles(t, dir)

	// Concurrent cancellation: wherever the cancel lands, the invariant
	// is a clean result or ctx.Err(), and no leaked temp files.
	want := scalarSelected(t, sess, batchCorpus(t))
	for i := 0; i < 6; i++ {
		cctx, ccancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			res, _, err := pb.Exec(cctx, arb.ExecOpts{Workers: 2})
			if err == nil {
				for m := range res {
					for qi, q := range pb.Queries(m) {
						if got := res[m].Selected(q); len(got) != len(want[m][qi]) {
							err = fmt.Errorf("member %d: %d nodes, want %d", m, len(got), len(want[m][qi]))
							break
						}
					}
				}
			}
			done <- err
		}()
		ccancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: error %v, want nil or context.Canceled", i, err)
		}
		assertOnlyDatabaseFiles(t, dir)
	}

	// The batch still answers correctly after cancellations.
	checkBatchAgainst(t, "after-cancel", pb, arb.ExecOpts{}, want)
}

// TestBatchRejectsUnsupportedOpts checks the documented ExecOpts
// restrictions and PrepareBatch's type validation.
func TestBatchRejectsUnsupportedOpts(t *testing.T) {
	tr := buildCatalog(t, 20)
	sess := arb.NewSession(tr)
	if _, err := sess.PrepareBatch(); err == nil {
		t.Error("empty PrepareBatch succeeded")
	}
	if _, err := sess.PrepareBatch("//item"); err == nil {
		t.Error("PrepareBatch accepted a plain string")
	}
	pb, err := sess.PrepareBatch(batchCorpus(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	var sink noopWriter
	if _, _, err := pb.Exec(context.Background(), arb.ExecOpts{MarkTo: sink}); err == nil {
		t.Error("batch Exec accepted MarkTo")
	}
}

// TestBatchOfOneMatchesScalar: a query is a batch of one at every layer,
// so a multi-pass query's scalar Exec and its one-member PreparedBatch
// Exec return the same Result, the same scan counters and the same pass
// count — on disk and over a tree's record image, sequentially and with a
// chunk frontier.
func TestBatchOfOneMatchesScalar(t *testing.T) {
	tr := buildCatalog(t, 1200)
	if tr.Len() < 1<<15 {
		t.Fatalf("catalog has %d nodes, below the parallel threshold", tr.Len())
	}
	db, err := arb.CreateDBFromTree(filepath.Join(t.TempDir(), "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, backend := range []struct {
		name string
		sess *arb.Session
	}{{"disk", arb.NewDBSession(db)}, {"tree", arb.NewSession(tr)}} {
		pq, err := backend.sess.PrepareXPath(q)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := backend.sess.BatchOf(pq)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend.name, workers), func(t *testing.T) {
				opts := arb.ExecOpts{Workers: workers, Stats: true}
				res, prof, err := pq.Exec(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				bres, bprof, err := pb.Exec(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(bres) != 1 || !reflect.DeepEqual(res, bres[0]) {
					t.Fatalf("batch of one returned %d results, differing from the scalar Exec's", len(bres))
				}
				if res.Count(pq.Queries()[0]) == 0 {
					t.Fatal("the query selects nothing: the comparison proves little")
				}
				if prof.Disk != bprof.Disk {
					t.Fatalf("disk profile\nscalar %+v\nbatch  %+v", prof.Disk, bprof.Disk)
				}
				if prof.Passes != 2 || bprof.Passes != prof.Passes {
					t.Fatalf("passes: scalar %d, batch %d, want 2 each", prof.Passes, bprof.Passes)
				}
			})
		}
	}
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// batchTwoScansQueries builds the 16 single-pass programs of the
// two-scans experiments: label tests and small structural patterns over
// the generated full-binary tags. Every fourth has an upward and a
// downward condition, which neither the one-scan nor the forward verdict
// admits, so the batch needs both phases on any document.
func batchTwoScansQueries(t testing.TB) []any {
	t.Helper()
	tags := []string{"a", "b", "c", "d"}
	var items []any
	for i := 0; i < 16; i++ {
		var src string
		switch i % 4 {
		case 0:
			src = fmt.Sprintf(`QUERY :- Label[%s];`, tags[(i/4)%4])
		case 1:
			src = fmt.Sprintf(`QUERY :- V.Label[%s].FirstChild.Label[%s];`, tags[(i/4)%4], tags[(i/4+1)%4])
		case 2:
			src = fmt.Sprintf(`QUERY :- Leaf, Label[%s];`, tags[(i/4)%4])
		case 3:
			src = fmt.Sprintf(`U :- Label[%s]; P :- U.invFirstChild; S :- P.SecondChild; QUERY :- S, HasFirstChild;`, tags[(i/4)%4])
		}
		p, err := arb.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, p)
	}
	return items
}

// checkTwoScans asserts the aggregate-I/O property on a database: one
// batch Exec of 16 queries reads the .arb data exactly once per phase —
// two linear scans for the whole batch — sequentially and with 4 workers.
func checkTwoScans(t *testing.T, base string) {
	t.Helper()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	pb, err := sess.PrepareBatch(batchTwoScansQueries(t)...)
	if err != nil {
		t.Fatal(err)
	}
	dataBytes := sess.Len() * storage.NodeSize
	for _, workers := range []int{1, 4} {
		res, prof, err := pb.Exec(context.Background(), arb.ExecOpts{Workers: workers, Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 16 {
			t.Fatalf("workers=%d: %d results, want 16", workers, len(res))
		}
		if prof.Passes != 1 {
			t.Fatalf("workers=%d: %d rounds for single-pass batch, want 1", workers, prof.Passes)
		}
		// The scan property, selectivity-pruning aware: every byte of the
		// database is either read or provably-irrelevant-and-skipped,
		// exactly once per aggregate phase that ran — phase 1 always,
		// phase 2 unless every lane's selections were decided bottom-up
		// (then it reads nothing).
		p1 := prof.Disk.Phase1.Bytes + prof.Disk.Phase1.SkippedBytes
		p2 := prof.Disk.Phase2.Bytes + prof.Disk.Phase2.SkippedBytes
		if p1 != dataBytes || p2 != int64(1-prof.Disk.OneScan)*dataBytes {
			t.Fatalf("workers=%d: aggregate scans covered %d/%d data bytes (read %d/%d, skipped %d/%d, one-scan %d), want exactly %d per phase that ran (one or two linear scans for the whole batch)",
				workers, p1, p2, prof.Disk.Phase1.Bytes, prof.Disk.Phase2.Bytes,
				prof.Disk.Phase1.SkippedBytes, prof.Disk.Phase2.SkippedBytes, prof.Disk.OneScan, dataBytes)
		}
		// Spot-check a member against its own scalar run.
		pq, err := sess.Prepare(pb.Program(3))
		if err != nil {
			t.Fatal(err)
		}
		n, err := pq.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := res[3].Count(pb.Queries(3)[0]); got != n {
			t.Fatalf("workers=%d: member 3 selected %d nodes, scalar %d", workers, got, n)
		}
	}
}

// TestBatchTwoScans asserts the exactly-two-aggregate-linear-scans
// property of a 16-query batch via the Profile bytes-read counters, on a
// moderate generated database.
func TestBatchTwoScans(t *testing.T) {
	base := filepath.Join(t.TempDir(), "fb")
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 16, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	checkTwoScans(t, base)
}
