package main

import (
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/storage"
	"arb/internal/workload"
)

// TestGenerateDatasets creates each dataset at scale 0.001 and reopens the
// database from disk: its node count must match an independent count —
// the in-memory generator's tree for Treebank and Swissprot, and for ACGT
// the root plus the 2^15-1 symbols of the scaled sequence.
func TestGenerateDatasets(t *testing.T) {
	const scale = 0.001
	treebank, err := workload.TreebankTree(workload.DefaultTreebank(scale))
	if err != nil {
		t.Fatal(err)
	}
	swissprot, err := workload.SwissprotTree(workload.DefaultSwissprot(scale))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"treebank":   int64(treebank.Len()),
		"swissprot":  int64(swissprot.Len()),
		"acgt-flat":  1 << 15,
		"acgt-infix": 1 << 15,
	}
	dir := t.TempDir()
	for _, dataset := range []string{"treebank", "swissprot", "acgt-flat", "acgt-infix"} {
		base := filepath.Join(dir, dataset)
		if err := run(dataset, base, scale, 0); err != nil {
			t.Fatalf("%s: %v", dataset, err)
		}
		db, err := storage.Open(base)
		if err != nil {
			t.Fatalf("%s: reopen: %v", dataset, err)
		}
		n := db.N
		db.Close()
		if n != want[dataset] {
			t.Errorf("%s: %d nodes, want %d", dataset, n, want[dataset])
		}
	}
}

func TestGenerateUnknownDataset(t *testing.T) {
	err := run("xmark", filepath.Join(t.TempDir(), "db"), 0.001, 0)
	if err == nil || !strings.Contains(err.Error(), `unknown dataset "xmark"`) {
		t.Fatalf("unknown dataset: got %v", err)
	}
}
