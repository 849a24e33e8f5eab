package arb_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"arb"
	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
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

// TestBatchDifferential is the batch differential test: a corpus of nine
// mixed queries (incl. multi-pass not(..) XPath) executed as one
// PreparedBatch over memory, disk and parallel-disk sessions selects
// bit-identical nodes to per-query PreparedQuery execution and to the
// naive-evaluation oracles.
func TestBatchDifferential(t *testing.T) {
	tr := buildCatalog(t, 1200)
	if tr.Len() < 1<<15 {
		t.Fatalf("catalog has %d nodes, below the parallel threshold", tr.Len())
	}
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	corpus := batchCorpus(t)
	memSess := arb.NewSession(tr)
	diskSess := arb.NewDBSession(db)
	want := scalarSelected(t, memSess, corpus)

	checkOracles(t, tr, corpus, want)

	memBatch, err := memSess.PrepareBatch(corpus...)
	if err != nil {
		t.Fatal(err)
	}
	diskBatch, err := diskSess.PrepareBatch(corpus...)
	if err != nil {
		t.Fatal(err)
	}
	// Pass scheduling: the deepest members have one aux pass plus their
	// main, so the whole nine-query batch runs in 2 scan pairs — not the
	// 11 a sequential execution would pay.
	if r := diskBatch.Rounds(); r != 2 {
		t.Fatalf("batch schedules %d rounds, want 2", r)
	}

	checkBatchAgainst(t, "batch-memory", memBatch, arb.ExecOpts{}, want)
	checkBatchAgainst(t, "batch-memory-parallel", memBatch, arb.ExecOpts{Workers: 4}, want)
	checkBatchAgainst(t, "batch-disk", diskBatch, arb.ExecOpts{}, want)
	checkBatchAgainst(t, "batch-disk-parallel", diskBatch, arb.ExecOpts{Workers: 4}, want)
	// Warm re-execution: persistent automata must not change results.
	checkBatchAgainst(t, "batch-disk-warm", diskBatch, arb.ExecOpts{}, want)

	counts, err := diskBatch.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if wantc := int64(len(want[i][0])); counts[i] != wantc {
			t.Fatalf("Count member %d: %d, want %d", i, counts[i], wantc)
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestBatchOrderIndependence is the property test: random subsets of the
// corpus, in random order, executed on both backends, always reproduce
// each member's scalar result — batch composition and position must not
// leak into any member's answer.
func TestBatchOrderIndependence(t *testing.T) {
	tr := buildCatalog(t, 500)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	corpus := batchCorpus(t)
	memSess := arb.NewSession(tr)
	diskSess := arb.NewDBSession(db)
	want := scalarSelected(t, memSess, corpus)
	checkOracles(t, tr, corpus, want)

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		perm := rng.Perm(len(corpus))
		size := 1 + rng.Intn(len(corpus))
		sel := perm[:size]
		items := make([]any, size)
		wants := make([][][]arb.NodeID, size)
		for j, i := range sel {
			items[j] = corpus[i]
			wants[j] = want[i]
		}
		sess, name := memSess, "memory"
		if trial%2 == 1 {
			sess, name = diskSess, "disk"
		}
		pb, err := sess.PrepareBatch(items...)
		if err != nil {
			t.Fatal(err)
		}
		workers := 1
		if trial%4 >= 2 {
			workers = 3
		}
		label := fmt.Sprintf("trial %d (%s, %d workers, members %v)", trial, name, workers, sel)
		checkBatchAgainst(t, label, pb, arb.ExecOpts{Workers: workers}, wants)
	}
	assertOnlyDatabaseFiles(t, dir)
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
	if _, _, err := pb.Exec(context.Background(), arb.ExecOpts{KeepStates: true}); err == nil {
		t.Error("batch Exec accepted KeepStates")
	}
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// batchTwoScansQueries builds the 16 single-pass programs of the
// two-scans experiments: label tests and small structural patterns over
// the generated full-binary tags.
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
			src = fmt.Sprintf(`QUERY :- V.Label[%s].SecondChild.HasFirstChild;`, tags[(i/4)%4])
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
// two linear scans for the whole batch — at each requested worker count.
func checkTwoScans(t *testing.T, base string, workerCounts []int, spotCheck bool) {
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
	for _, workers := range workerCounts {
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
		if !spotCheck {
			continue
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
	db, err := storage.CreateFullBinary(base, 16, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	checkTwoScans(t, base, []int{1, 4}, true)
}

// TestBatchTwoScansLarge is the full-size acceptance experiment: a 16
// query batch over a >= 64 MB generated database still performs exactly
// two aggregate linear scans. Skipped under -short and under the race
// detector (the instrumented inner loops would blow the CI budget; the
// property itself is size-independent and covered above).
func TestBatchTwoScansLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MB database experiment skipped in -short mode")
	}
	if testutil.RaceEnabled {
		t.Skip("64 MB database experiment skipped under the race detector")
	}
	base := filepath.Join(t.TempDir(), "fb")
	db, err := storage.CreateFullBinary(base, 24, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	n := db.N
	db.Close()
	if bytes := n * storage.NodeSize; bytes < 64_000_000 {
		t.Fatalf("generated database is %d bytes, want >= 64 MB", bytes)
	}
	// One sequential execution: the bytes counters are what is under
	// test, and the parallel path's counters are covered on the moderate
	// database above. arbbench -experiment batch is the timing companion.
	checkTwoScans(t, base, []int{1}, false)
}
