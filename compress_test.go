package arb_test

import (
	"context"
	"path/filepath"
	"testing"

	"arb"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tree"
)

// compressedCopy creates a second database from the same tree and
// rewrites it as a block-compressed container.
func compressedCopy(tb testing.TB, dir string, tr *arb.Tree, blockSize int) (string, arb.CompressionInfo) {
	tb.Helper()
	base := filepath.Join(dir, "compressed")
	db, err := arb.CreateDBFromTree(base, tr)
	if err != nil {
		tb.Fatal(err)
	}
	db.Close()
	info, err := arb.CompressDB(base, blockSize)
	if err != nil {
		tb.Fatal(err)
	}
	if info.Ratio() <= 1 {
		tb.Fatalf("compression ratio %.2f on a repetitive-label document", info.Ratio())
	}
	return base, info
}

// TestCompressDifferentialStrategies is the compressed/raw differential
// across every strategy: for each corpus query, every execution on the
// compressed database must select bit-identical nodes to the raw one —
// sequential, parallel, pruned and unpruned — while the logical byte
// counters stay identical and the physical counters show the container
// actually saving reads.
func TestCompressDifferentialStrategies(t *testing.T) {
	tr := buildPruneDoc(t, 8, 300)
	dir := t.TempDir()
	rawBase := filepath.Join(dir, "raw")
	rawDB, err := arb.CreateDBFromTree(rawBase, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rawDB.Close()
	compBase, info := compressedCopy(t, dir, tr, 1<<14)
	compDB, err := arb.OpenDB(compBase)
	if err != nil {
		t.Fatal(err)
	}
	defer compDB.Close()
	if ci, ok := compDB.Compression(); !ok || ci.PhysBytes != info.PhysBytes {
		t.Fatalf("reopened compression info %+v ok=%v, want %+v", ci, ok, info)
	}
	dataBytes := rawDB.N * storage.NodeSize

	rawSess := arb.NewDBSession(rawDB)
	compSess := arb.NewDBSession(compDB)

	for qi, item := range pruneQueries(t) {
		rawPQ := prepare(t, rawSess, item)
		compPQ := prepare(t, compSess, item)
		for _, opts := range []arb.ExecOpts{
			{},
			{Workers: 4},
			{NoPrune: true},
			{Workers: 4, NoPrune: true},
		} {
			opts.Stats = true
			rawRes, rawProf, err := rawPQ.Exec(context.Background(), opts)
			if err != nil {
				t.Fatalf("query %d raw %+v: %v", qi, opts, err)
			}
			compRes, compProf, err := compPQ.Exec(context.Background(), opts)
			if err != nil {
				t.Fatalf("query %d compressed %+v: %v", qi, opts, err)
			}
			want := rawRes.Selected(rawPQ.Queries()[0])
			got := compRes.Selected(compPQ.Queries()[0])
			if len(got) != len(want) {
				t.Fatalf("query %d %+v: compressed selected %d, raw %d", qi, opts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("query %d %+v: selected[%d] = %d, raw %d", qi, opts, i, got[i], want[i])
				}
			}
			// Logical counters agree exactly: same scans, same skips.
			for phase, pair := range map[string][2]storage.ScanStats{
				"phase1": {rawProf.Disk.Phase1, compProf.Disk.Phase1},
				"phase2": {rawProf.Disk.Phase2, compProf.Disk.Phase2},
			} {
				r, c := pair[0], pair[1]
				if r.Bytes != c.Bytes || r.SkippedBytes != c.SkippedBytes || r.Nodes != c.Nodes {
					t.Fatalf("query %d %+v %s: logical stats diverged: raw %+v comp %+v", qi, opts, phase, r, c)
				}
				// Raw: physical == logical read bytes. Compressed: strictly
				// fewer physical bytes than logical on this repetitive
				// document whenever the phase read anything substantial.
				if r.PhysicalBytes != r.Bytes {
					t.Fatalf("query %d %+v %s: raw physical %d != bytes %d", qi, opts, phase, r.PhysicalBytes, r.Bytes)
				}
				if c.Bytes > dataBytes/4 && c.PhysicalBytes >= c.Bytes {
					t.Fatalf("query %d %+v %s: compressed physical %d >= logical %d", qi, opts, phase, c.PhysicalBytes, c.Bytes)
				}
			}
			// Sequential unpruned runs scan every block exactly once per
			// pass: physical bytes equal the container payload per scan.
			if opts.Workers == 0 && opts.NoPrune {
				passes := int64(compProf.Passes)
				if p := compProf.Disk.Phase1.PhysicalBytes; p != passes*info.PayloadBytes {
					t.Fatalf("query %d: full-scan phase1 physical %d, want %d x %d", qi, p, passes, info.PayloadBytes)
				}
			}
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestCompressBatchDifferential runs shared-scan batches on the
// compressed database against the raw one at both worker counts, at the
// benchmark's geometry (LZ, 16 KB blocks), so batched scans go through
// the resumable prefix decoder.
func TestCompressBatchDifferential(t *testing.T) {
	tr := buildPruneDoc(t, 6, 250)
	dir := t.TempDir()
	rawDB, err := arb.CreateDBFromTree(filepath.Join(dir, "raw"), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rawDB.Close()
	compBase, _ := compressedCopy(t, dir, tr, 1<<14)
	compDB, err := arb.OpenDB(compBase)
	if err != nil {
		t.Fatal(err)
	}
	defer compDB.Close()

	items := pruneQueries(t)
	rawPB, err := arb.NewDBSession(rawDB).PrepareBatch(items...)
	if err != nil {
		t.Fatal(err)
	}
	compPB, err := arb.NewDBSession(compDB).PrepareBatch(items...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := arb.ExecOpts{Workers: workers, Stats: true}
		wantRes, _, err := rawPB.Exec(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, prof, err := compPB.Exec(context.Background(), opts)
		if err != nil {
			t.Fatalf("compressed batch workers=%d: %v", workers, err)
		}
		for m := range gotRes {
			for _, q := range compPB.Queries(m) {
				got, want := gotRes[m].Selected(q), wantRes[m].Selected(q)
				if len(got) != len(want) {
					t.Fatalf("workers=%d member %d: %d selected, want %d", workers, m, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d member %d: selected[%d]=%d, want %d", workers, m, i, got[i], want[i])
					}
				}
			}
		}
		if p := prof.Disk.Phase1.PhysicalBytes + prof.Disk.Phase2.PhysicalBytes; p == 0 {
			t.Fatalf("workers=%d: compressed batch reported no physical bytes", workers)
		}
	}
	assertOnlyDatabaseFiles(t, dir)
}

// TestCompressLargeDifferential is the full-size acceptance experiment:
// a >= 64 MB repetitive-label database compressed with both the scan
// invariants and bit-identical selection against the raw original.
// Skipped under -short and the race detector like the other full-size
// experiments.
func TestCompressLargeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MB database experiment skipped in -short mode")
	}
	if testutil.RaceEnabled {
		t.Skip("64 MB database experiment skipped under the race detector")
	}
	dir := t.TempDir()
	rawBase := filepath.Join(dir, "raw")
	names := tree.NewNames()
	rawDB, err := storage.CreateBinary(rawBase, names, storage.FullBinary(names, 24, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	defer rawDB.Close()
	if bytes := rawDB.N * storage.NodeSize; bytes < 64_000_000 {
		t.Fatalf("generated database is %d bytes, want >= 64 MB", bytes)
	}
	compBase := filepath.Join(dir, "comp")
	names = tree.NewNames()
	if _, err := storage.CreateBinary(compBase, names, storage.FullBinary(names, 24, "a", "b", "c", "d")); err != nil {
		t.Fatal(err)
	}
	info, err := arb.CompressDB(compBase, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ratio() < 1.5 {
		t.Fatalf("full-binary label stream compressed only %.2fx", info.Ratio())
	}
	compDB, err := arb.OpenDB(compBase)
	if err != nil {
		t.Fatal(err)
	}
	defer compDB.Close()
	if compDB.N != rawDB.N {
		t.Fatalf("compressed N %d, raw %d", compDB.N, rawDB.N)
	}

	prog, err := arb.ParseProgram(`QUERY :- Label[b];`)
	if err != nil {
		t.Fatal(err)
	}
	rawPQ, err := arb.NewDBSession(rawDB).Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	compPQ, err := arb.NewDBSession(compDB).Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	opts := arb.ExecOpts{NoPrune: true, Stats: true}
	rawRes, rawProf, err := rawPQ.Exec(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	compRes, compProf, err := compPQ.Exec(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rc, cc := rawRes.Count(rawPQ.Queries()[0]), compRes.Count(compPQ.Queries()[0]); rc != cc || rc == 0 {
		t.Fatalf("selected %d on compressed, %d on raw", cc, rc)
	}
	if rawProf.Disk.Phase1.PhysicalBytes != rawProf.Disk.Phase1.Bytes {
		t.Fatalf("raw physical %d != logical %d", rawProf.Disk.Phase1.PhysicalBytes, rawProf.Disk.Phase1.Bytes)
	}
	if compProf.Disk.Phase1.PhysicalBytes != info.PayloadBytes {
		t.Fatalf("compressed full scan read %d physical bytes, container payload is %d",
			compProf.Disk.Phase1.PhysicalBytes, info.PayloadBytes)
	}
}
