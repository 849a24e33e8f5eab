package xpath

import (
	"bytes"
	"context"
	"io"
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
	if m, _ := filepath.Glob(filepath.Join(dir, "*.sta")); len(m) > 0 {
		t.Fatalf("executions left temporary files behind: %v", m)
	}
}

// TestBatchPerQueryOpts: marked XML, the option that names one query's
// output, rides on the main round of a batch of one, so a scalar execution
// writes it, and a batch of several members rejects it instead of ignoring
// it.
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
	res, _, err := p.ExecDisk(ctx, db, ExecOpts{Workers: 1, MarkTo: &marked})
	if err != nil {
		t.Fatal(err)
	}
	mark := []byte(` arb:selected="true"`)
	if n := res.Count(p.Queries()[0]); n == 0 || int64(bytes.Count(marked.Bytes(), mark)) != n {
		t.Fatalf("%d elements selected, %d marked in the output", n, bytes.Count(marked.Bytes(), mark))
	}
	b := NewBatch([]*Prepared{p, prepare(t, "//VP/NP", db)})
	if _, _, err := b.ExecDisk(ctx, db, ExecOpts{Workers: 1, MarkTo: io.Discard}); err == nil {
		t.Error("a two-member batch accepted MarkTo")
	}
	assertNoTempFiles(t, dir)
}
