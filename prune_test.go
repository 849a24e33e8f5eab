package arb_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"arb"
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

// TestPruneCancelNoLeak checks cancellation during pruned executions:
// wherever the cancel lands — including mid-skip — the result is either
// clean or ctx.Err(), and no state file survives.
func TestPruneCancelNoLeak(t *testing.T) {
	tr := buildPruneDoc(t, 8, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "library"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	pq := prepare(t, sess, mustXPath(t, `//item[not(flag)]/name`)) // multi-pass: aux planes in play
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
