package xpath

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/workload"
)

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
