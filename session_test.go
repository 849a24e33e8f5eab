package arb_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arb"
)

// buildCatalog constructs a catalog document large enough that the
// parallel disk evaluator genuinely cuts a chunk frontier (its
// coordination threshold is 2^15 nodes; text is one node per character,
// so items*~45 nodes passes it comfortably), with a planted pattern for
// a not(..) query: every third item lacks a flag child.
func buildCatalog(tb testing.TB, items int) *arb.Tree {
	tb.Helper()
	b := arb.NewTreeBuilder()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(b.Begin("catalog"))
	for i := 0; i < items; i++ {
		must(b.Begin("item"))
		must(b.Begin("name"))
		must(b.Text([]byte(fmt.Sprintf("product-%06d-%016x", i, uint64(i)*2654435761))))
		must(b.End())
		if i%3 != 0 {
			must(b.Begin("flag"))
			must(b.Text([]byte("y")))
			must(b.End())
		}
		must(b.End())
	}
	must(b.End())
	t, err := b.Tree()
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// selectedOf runs the query and returns the selected node ids.
func selectedOf(tb testing.TB, pq *arb.PreparedQuery, opts arb.ExecOpts) []arb.NodeID {
	tb.Helper()
	res, _, err := pq.Exec(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Selected(pq.Queries()[0])
}

// TestExecDifferentialNotXPath is the differential test of the unified
// Exec path: a multi-pass XPath query (not(..) adds an auxiliary pass)
// evaluated in memory, on disk sequentially, and on disk in parallel —
// plus in-memory parallel for completeness — must select identical
// nodes on a document big enough that the parallel disk path truly cuts
// a chunk frontier.
func TestExecDifferentialNotXPath(t *testing.T) {
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

	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(xq.Passes) == 0 {
		t.Fatal("query compiled without auxiliary passes; not(..) should be multi-pass")
	}

	memSess := arb.NewSession(tr)
	diskSess := arb.NewDBSession(db)
	memPQ, err := memSess.PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	diskPQ, err := diskSess.PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}

	want := selectedOf(t, memPQ, arb.ExecOpts{})
	if len(want) != 400 {
		t.Fatalf("memory Exec selected %d nodes, want 400 (one name per flagless item)", len(want))
	}
	got := map[string][]arb.NodeID{
		"memory-parallel": selectedOf(t, memPQ, arb.ExecOpts{Workers: 4}),
		"disk-sequential": selectedOf(t, diskPQ, arb.ExecOpts{}),
		"disk-parallel":   selectedOf(t, diskPQ, arb.ExecOpts{Workers: 4}),
	}
	for path, sel := range got {
		if len(sel) != len(want) {
			t.Fatalf("%s selected %d nodes, memory selected %d", path, len(sel), len(want))
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Fatalf("%s: selected node %d is %d, memory selected %d", path, i, sel[i], want[i])
			}
		}
	}

	// No execution left temporary state or aux files next to the
	// database.
	assertOnlyDatabaseFiles(t, dir)
}

// assertOnlyDatabaseFiles fails if dir holds anything beyond the
// database triple (.arb, .lab, .idx) — stray .sta state files, aux
// sidecars or arb-aux-* directories mean an execution leaked.
func assertOnlyDatabaseFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch ext := filepath.Ext(e.Name()); ext {
		case ".arb", ".lab", ".idx":
		default:
			t.Errorf("stray file after execution: %s", e.Name())
		}
	}
}

// TestExecCancelDisk checks prompt cancellation on the secondary-storage
// paths: an already-cancelled context must abort sequential, parallel
// and multi-pass executions with ctx.Err(), and every temporary file —
// phase-1 state files and the aux sidecars chaining multi-pass XPath —
// must be cleaned up.
func TestExecCancelDisk(t *testing.T) {
	tr := buildCatalog(t, 1200)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)

	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}
	xpq, err := sess.PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := arb.ParseProgram(`QUERY :- Label[name];`)
	if err != nil {
		t.Fatal(err)
	}
	tpq, err := sess.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"tmnf-sequential": func() error { _, _, err := tpq.Exec(ctx, arb.ExecOpts{}); return err },
		"tmnf-parallel":   func() error { _, _, err := tpq.Exec(ctx, arb.ExecOpts{Workers: 4}); return err },
		"xpath-multipass": func() error { _, _, err := xpq.Exec(ctx, arb.ExecOpts{}); return err },
		"xpath-parallel":  func() error { _, _, err := xpq.Exec(ctx, arb.ExecOpts{Workers: 4}); return err },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, err)
		}
	}
	assertOnlyDatabaseFiles(t, dir)

	// A deadline that has already passed reports DeadlineExceeded.
	dctx, dcancel := context.WithTimeout(context.Background(), 1)
	defer dcancel()
	<-dctx.Done()
	if _, _, err := xpq.Exec(dctx, arb.ExecOpts{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: error %v, want context.DeadlineExceeded", err)
	}
	assertOnlyDatabaseFiles(t, dir)

	// The queries still work afterwards: cancellation must not corrupt
	// the prepared state.
	n, err := xpq.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("after cancellation the query selects %d nodes, want 400", n)
	}
}

// TestExecCancelMemory checks cancellation of the in-memory paths.
func TestExecCancelMemory(t *testing.T) {
	tr := buildCatalog(t, 400)
	sess := arb.NewSession(tr)
	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pq.Exec(ctx, arb.ExecOpts{}); !errors.Is(err, context.Canceled) {
		t.Errorf("sequential: error %v, want context.Canceled", err)
	}
	if _, _, err := pq.Exec(ctx, arb.ExecOpts{Workers: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel: error %v, want context.Canceled", err)
	}
	pb, err := sess.BatchOf(pq, pq)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		if _, _, err := pb.Exec(ctx, arb.ExecOpts{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("batch, %d workers: error %v, want context.Canceled", workers, err)
		}
	}
	if n, err := pq.Count(context.Background()); err != nil || n == 0 {
		t.Fatalf("after cancellation: %d nodes, err %v", n, err)
	}
}

// TestExecCancelMidScan cancels concurrently with a running execution.
// Whether the cancel lands before, during or after the scans, the
// invariant is the same: either a clean result or ctx.Err(), and no
// temporary files left behind.
func TestExecCancelMidScan(t *testing.T) {
	tr := buildCatalog(t, 1500)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			res, _, err := pq.Exec(ctx, arb.ExecOpts{Workers: 2})
			if err == nil && res.Count(pq.Queries()[0]) != 500 {
				err = fmt.Errorf("completed run selected %d nodes, want 500", res.Count(pq.Queries()[0]))
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

// TestSessionConcurrentExec runs one prepared query from many goroutines
// at once (Execs serialise internally) alongside a second prepared query
// on the same session; every run must agree.
func TestSessionConcurrentExec(t *testing.T) {
	tr := buildCatalog(t, 600)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	prog, err := arb.ParseProgram(`QUERY :- Label[flag];`)
	if err != nil {
		t.Fatal(err)
	}
	pq1, err := sess.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := arb.ParseXPath(`//item[not(flag)]`)
	if err != nil {
		t.Fatal(err)
	}
	pq2, err := sess.PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		pq, want := pq1, int64(400)
		if g%2 == 1 {
			pq, want = pq2, 200
		}
		go func() {
			n, err := pq.Count(context.Background())
			if err == nil && n != want {
				err = fmt.Errorf("selected %d nodes, want %d", n, want)
			}
			errc <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestExecMarkedOutputBothBackends checks that MarkTo produces the same
// marked document from the in-memory and the secondary-storage paths.
func TestExecMarkedOutputBothBackends(t *testing.T) {
	tr := buildCatalog(t, 40)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}
	var mem, disk strings.Builder
	memPQ, err := arb.NewSession(tr).PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := memPQ.Exec(context.Background(), arb.ExecOpts{MarkTo: &mem}); err != nil {
		t.Fatal(err)
	}
	diskPQ, err := arb.NewDBSession(db).PrepareXPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := diskPQ.Exec(context.Background(), arb.ExecOpts{MarkTo: &disk}); err != nil {
		t.Fatal(err)
	}
	if mem.String() != disk.String() {
		t.Fatalf("marked output differs between backends:\nmemory: %.200s\ndisk:   %.200s", mem.String(), disk.String())
	}
	if n := strings.Count(disk.String(), `arb:selected="true"`); n != 14 {
		t.Fatalf("marked output has %d selected elements, want 14", n)
	}
}

// TestExecMarkQueryValidation checks that an out-of-range MarkQuery is
// rejected with an error on both backends instead of panicking (memory)
// or silently marking nothing (disk).
func TestExecMarkQueryValidation(t *testing.T) {
	tr := buildCatalog(t, 10)
	db, err := arb.CreateDBFromTree(filepath.Join(t.TempDir(), "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	xq, err := arb.ParseXPath(`//item[not(flag)]`)
	if err != nil {
		t.Fatal(err)
	}
	for name, sess := range map[string]*arb.Session{
		"memory": arb.NewSession(tr),
		"disk":   arb.NewDBSession(db),
	} {
		pq, err := sess.PrepareXPath(xq)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, bad := range []int{-1, 1, 7} {
			_, _, err := pq.Exec(context.Background(), arb.ExecOpts{MarkTo: &out, MarkQuery: bad})
			if err == nil || !strings.Contains(err.Error(), "MarkQuery") {
				t.Errorf("%s: MarkQuery %d: error %v, want out-of-range error", name, bad, err)
			}
		}
	}
}
