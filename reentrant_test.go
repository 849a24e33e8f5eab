package arb_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"arb"
)

// gateWriter blocks the first Write until released, flagging when the
// write began — a probe that pins an Exec mid-execution.
type gateWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return len(p), nil
}

// TestExecReentrantOverlap is the regression test for the serialised
// PreparedQuery: two Execs of ONE handle must be able to run at the same
// time. The first execution is pinned mid-run (its MarkTo writer blocks
// on a gate); the second must complete while the first is still inside
// Exec. Under the old per-handle mutex the second Exec queued behind the
// first and this test timed out.
func TestExecReentrantOverlap(t *testing.T) {
	tr := buildCatalog(t, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for name, sess := range map[string]*arb.Session{
		"memory": arb.NewSession(tr),
		"disk":   arb.NewDBSession(db),
	} {
		t.Run(name, func(t *testing.T) {
			prog, err := arb.ParseProgram(`QUERY :- Label[flag];`)
			if err != nil {
				t.Fatal(err)
			}
			pq, err := sess.Prepare(prog)
			if err != nil {
				t.Fatal(err)
			}

			gate := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
			pinned := make(chan error, 1)
			go func() {
				_, _, err := pq.Exec(context.Background(), arb.ExecOpts{MarkTo: gate})
				pinned <- err
			}()
			select {
			case <-gate.started:
			case <-time.After(10 * time.Second):
				t.Fatal("pinned execution never reached its writer")
			}

			// The handle is mid-Exec; a second Exec of the SAME handle
			// must still run to completion.
			overlapped := make(chan error, 1)
			go func() {
				n, err := pq.Count(context.Background())
				if err == nil && n != 200 {
					err = fmt.Errorf("overlapped Exec selected %d nodes, want 200", n)
				}
				overlapped <- err
			}()
			select {
			case err := <-overlapped:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("second Exec of the handle did not overlap the pinned one (handle serialises executions)")
			}

			close(gate.release)
			if err := <-pinned; err != nil {
				t.Fatalf("pinned execution failed: %v", err)
			}
		})
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestStateFilesOverlap is the regression test for the per-run state-file
// names: two disk Execs of ONE handle that both take two scans must
// overlap, each with its own state file. The first execution is pinned in
// phase 2 (its MarkTo writer blocks on a gate), its state file open; the
// second must complete while the first is still inside Exec, without
// touching the first's file. Under the old fixed base.sta name the handle
// serialised its runs and this test timed out.
func TestStateFilesOverlap(t *testing.T) {
	tr := buildCatalog(t, 300)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)

	// The flags under an item with a name: an upward condition (the name
	// child) and a downward one (the item parent), so every run takes two
	// scans and writes a state file.
	prog, err := arb.ParseProgram(`C :- Label[name]; U :- C; U :- U.invNextSibling; P :- U.invFirstChild; I :- Label[item], P;
		F :- I.FirstChild; F :- F.NextSibling; QUERY :- F, Label[flag];`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := sess.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	stateFiles := func() []string {
		m, _ := filepath.Glob(filepath.Join(dir, "*.sta"))
		return m
	}

	gate := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
	type outcome struct {
		res  *arb.Result
		prof *arb.Profile
		err  error
	}
	run := func(opts arb.ExecOpts, out chan<- outcome) {
		opts.Stats = true
		res, prof, err := pq.Exec(context.Background(), opts)
		out <- outcome{res, prof, err}
	}
	pinned := make(chan outcome, 1)
	go run(arb.ExecOpts{MarkTo: gate}, pinned)
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("pinned execution never reached its writer")
	}
	if m := stateFiles(); len(m) != 1 {
		t.Fatalf("the pinned execution holds state files %v, want one", m)
	}

	// The handle is mid-Exec with a state file in flight; a second Exec
	// of the SAME handle must still run to completion.
	overlapped := make(chan outcome, 1)
	go run(arb.ExecOpts{}, overlapped)
	var second outcome
	select {
	case second = <-overlapped:
		if second.err != nil {
			t.Fatal(second.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second Exec did not overlap the pinned one (handle serialises its runs)")
	}
	if m := stateFiles(); len(m) != 1 {
		t.Fatalf("with the pinned execution still in phase 2, state files %v, want its one", m)
	}

	close(gate.release)
	first := <-pinned
	if first.err != nil {
		t.Fatalf("pinned execution failed: %v", first.err)
	}
	for _, o := range []outcome{first, second} {
		if n := o.res.Count(pq.Queries()[0]); n != 200 || o.prof.Disk.OneScan != 0 || o.prof.Disk.StateBytes == 0 {
			t.Fatalf("a run selected %d nodes, %d one-scan passes and %d state bytes; want 200 in two scans", n, o.prof.Disk.OneScan, o.prof.Disk.StateBytes)
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestConcurrentSessionStress hammers one session pair (memory and disk
// over the same document) with goroutines running a mixed workload —
// scalar TMNF, multi-pass XPath, PrepareBatch batches and BatchOf
// batches over the shared hot handles, sequential and parallel — and
// requires every result to be bit-identical to the sequential baseline.
// Run under -race this is the concurrency gate for the reentrant
// execution layer.
func TestConcurrentSessionStress(t *testing.T) {
	tr := buildCatalog(t, 900)
	dir := t.TempDir()
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "catalog"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	prog, err := arb.ParseProgram(`QUERY :- Label[flag];`)
	if err != nil {
		t.Fatal(err)
	}
	xq, err := arb.ParseXPath(`//item[not(flag)]/name`)
	if err != nil {
		t.Fatal(err)
	}

	type backend struct {
		name string
		sess *arb.Session
		pq   *arb.PreparedQuery // hot scalar handle, shared by all goroutines
		xpq  *arb.PreparedQuery // hot multi-pass handle
		pb   *arb.PreparedBatch // hot batch over the two handles' automata
	}
	var backends []*backend
	for name, sess := range map[string]*arb.Session{
		"memory": arb.NewSession(tr),
		"disk":   arb.NewDBSession(db),
	} {
		b := &backend{name: name, sess: sess}
		if b.pq, err = sess.Prepare(prog); err != nil {
			t.Fatal(err)
		}
		if b.xpq, err = sess.PrepareXPath(xq); err != nil {
			t.Fatal(err)
		}
		if b.pb, err = sess.BatchOf(b.pq, b.xpq); err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}

	// Sequential baselines, computed before any concurrency.
	wantScalar := selectedOf(t, backends[0].pq, arb.ExecOpts{})
	wantXPath := selectedOf(t, backends[0].xpq, arb.ExecOpts{})
	if len(wantScalar) != 600 || len(wantXPath) != 300 {
		t.Fatalf("baseline selected %d/%d nodes, want 600/300", len(wantScalar), len(wantXPath))
	}
	same := func(got, want []arb.NodeID) error {
		if len(got) != len(want) {
			return fmt.Errorf("selected %d nodes, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("selected node %d is %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}

	const goroutines = 16
	const iters = 6
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				b := backends[rng.Intn(len(backends))]
				workers := 1
				if rng.Intn(2) == 1 {
					workers = 3
				}
				opts := arb.ExecOpts{Workers: workers, NoPrune: rng.Intn(2) == 1}
				var err error
				switch rng.Intn(3) {
				case 0: // scalar TMNF through the shared hot handle
					var res *arb.Result
					if res, _, err = b.pq.Exec(context.Background(), opts); err == nil {
						err = same(res.Selected(b.pq.Queries()[0]), wantScalar)
					}
				case 1: // multi-pass XPath through the shared hot handle
					var res *arb.Result
					if res, _, err = b.xpq.Exec(context.Background(), opts); err == nil {
						err = same(res.Selected(b.xpq.Queries()[0]), wantXPath)
					}
				case 2: // shared-scan batch over the same engines
					var res []*arb.Result
					if res, _, err = b.pb.Exec(context.Background(), opts); err == nil {
						if err = same(res[0].Selected(b.pb.Queries(0)[0]), wantScalar); err == nil {
							err = same(res[1].Selected(b.pb.Queries(1)[0]), wantXPath)
						}
					}
				}
				if err != nil {
					errc <- fmt.Errorf("%s goroutine %d iter %d: %w", b.name, g, i, err)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}
