package xpath

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"arb/internal/storage"
	"arb/internal/tree"
	"arb/internal/workload"
)

// TestBatchNotRoundsMatchScalar runs random batches of Treebank filter
// queries, some with not(..) (an aux pass, or two nested), over a database
// big enough for four workers to cut chunks: the rounds chain their passes
// through widened aux sidecars — round 0's members in one product lane
// writing their slots, later rounds' readers in lanes of their own — and
// every member must select what it selects alone and what the interpreter
// says.
func TestBatchNotRoundsMatchScalar(t *testing.T) {
	tr, err := workload.TreebankTree(workload.TreebankConfig{Seed: 3, Sentences: 110})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.N < 1<<15 {
		t.Fatalf("%d nodes: too few for the chunked driver", db.N)
	}
	pool := []string{
		"//NP[not(PP)]", "//S[not(VP)]/NP", "//VP/NP", "//PP[not(NP[not(PP)])]",
		"//S[NP][VP]", "//NP[PP]/NP", "//VP[not(T3)]", "//S//PP",
	}
	ctx := context.Background()
	want := make([][]tree.NodeID, len(pool))
	for i, src := range pool {
		for v, ok := range NewInterp(tr).Eval(MustParse(src)) {
			if ok {
				want[i] = append(want[i], tree.NodeID(v))
			}
		}
		p := prepare(t, src, db)
		res, _, err := p.ExecDisk(ctx, db, ExecOpts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Selected(p.Queries()[0]); !slices.Equal(got, want[i]) {
			t.Fatalf("%s: scalar run selects %d nodes, the interpreter %d", src, len(got), len(want[i]))
		}
	}
	rng := rand.New(rand.NewSource(28))
	for iter := 0; iter < 6; iter++ {
		idx := rng.Perm(len(pool))[:2+rng.Intn(len(pool)-1)]
		if iter == 0 {
			idx = []int{3, 0, 2} // the nested negation: three rounds
		}
		members := make([]*Prepared, len(idx))
		for j, i := range idx {
			members[j] = prepare(t, pool[i], db)
		}
		b := NewBatch(members)
		if iter == 0 && b.Rounds() != 3 {
			t.Fatalf("the nested negation batch runs %d rounds, want 3", b.Rounds())
		}
		for _, workers := range []int{1, 4} {
			res, es, err := b.ExecDisk(ctx, db, ExecOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range idx {
				if got := res[j].Selected(members[j].Queries()[0]); !slices.Equal(got, want[i]) {
					t.Fatalf("iter %d, %d workers: %s selects %d nodes in the batch, %d alone", iter, workers, pool[i], len(got), len(want[i]))
				}
			}
			// Phase 1 reads the database once per round, phase 2 once per
			// round that did not omit it.
			scanned := db.N * storage.NodeSize
			if p1, p2 := int64(b.Rounds())*scanned, int64(b.Rounds()-es.Disk.OneScan)*scanned; es.Disk.Phase1.Bytes != p1 || es.Disk.Phase2.Bytes != p2 {
				t.Fatalf("iter %d, %d workers: scans read %d/%d bytes, want %d/%d: one or two per round", iter, workers, es.Disk.Phase1.Bytes, es.Disk.Phase2.Bytes, p1, p2)
			}
		}
	}
	assertNoTempFiles(t, dir)
}

func prepare(t *testing.T, src string, db *storage.DB) *Prepared {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Prepare(db.Names)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertNoTempFiles fails if anything but the database's own files is left
// in dir.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	for _, pat := range []string{"*.sta", "arb-aux-*"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) > 0 {
			t.Fatalf("executions left temporary files behind: %v", m)
		}
	}
}

// TestBatchPerQueryOpts: the options that name one query's output — a
// kept state file, marked XML — ride on the main round of a batch of one,
// so a scalar execution keeps them, and a batch of several members rejects
// them instead of ignoring them.
func TestBatchPerQueryOpts(t *testing.T) {
	tr, err := workload.TreebankTree(workload.TreebankConfig{Seed: 5, Sentences: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := storage.CreateFromTree(filepath.Join(dir, "db"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	p := prepare(t, "//NP[not(PP)]", db)
	var marked bytes.Buffer
	res, _, err := p.ExecDisk(ctx, db, ExecOpts{Workers: 1, KeepStates: true, MarkTo: &marked})
	if err != nil {
		t.Fatal(err)
	}
	if res.StateFile == "" {
		t.Fatal("the main pass kept no state file")
	}
	os.Remove(res.StateFile)
	mark := []byte(` arb:selected="true"`)
	if n := res.Count(p.Queries()[0]); n == 0 || int64(bytes.Count(marked.Bytes(), mark)) != n {
		t.Fatalf("%d elements selected, %d marked in the output", n, bytes.Count(marked.Bytes(), mark))
	}
	b := NewBatch([]*Prepared{p, prepare(t, "//VP/NP", db)})
	for _, opts := range []ExecOpts{{Workers: 1, KeepStates: true}, {Workers: 1, MarkTo: io.Discard}} {
		if _, _, err := b.ExecDisk(ctx, db, opts); err == nil {
			t.Errorf("a two-member batch accepted %+v", opts)
		}
	}
	assertNoTempFiles(t, dir)
}
