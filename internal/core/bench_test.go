package core

import (
	"context"
	"path/filepath"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// Ablation benchmarks for the engine's design choices: one warm step
// (two flat-table lookups), warm per-node cost of the in-memory and
// two-scan-disk drivers around it, and cold warm-up (LTUR + Contract per
// new transition). Every pass benchmark sets its bytes to the records it
// scans, so ns/op reads as ns/node × nodes and MB/s as record bandwidth —
// the quantities the repository's benchmark reports per layer.

func benchProgram(b *testing.B) *tmnf.Program {
	b.Helper()
	rx := workload.PathRegex{W1: []string{"A", "C"}, W2: []string{"G"}, W3: []string{"T"}}
	prog, err := rx.Program(workload.RFlat)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkRunWarm measures the steady state of the in-memory driver:
// transition tables converged, per-node work is cache lookups only.
func BenchmarkRunWarm(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 1<<16-1))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, t.Names())
	ctx := context.Background()
	if _, err := e.RunContext(ctx, t, RunOpts{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(t.Len()) * storage.NodeSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunContext(ctx, t, RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCold includes engine construction and lazy warm-up — the
// m of O(m + n).
func BenchmarkRunCold(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 1<<16-1))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(t.Len()) * storage.NodeSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(c, t.Names())
		if _, err := e.RunContext(context.Background(), t, RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDisk builds the database and the warm engine the disk benchmarks
// share, and sets their bytes to the records of both scans.
func benchDisk(b *testing.B) (*storage.DB, *Engine) {
	b.Helper()
	db, err := workload.CreateFlatDB(filepath.Join(b.TempDir(), "db"), workload.Sequence(4, 1<<16-1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	c, err := Compile(benchProgram(b))
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, db.Names)
	if _, _, err := e.RunDiskContext(context.Background(), db, DiskOpts{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(db.N * storage.NodeSize * 2)
	return db, e
}

// BenchmarkRunDisk measures the two-linear-scan secondary-storage driver
// (including writing and re-reading the temporary state file).
func BenchmarkRunDisk(b *testing.B) {
	db, e := benchDisk(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunDiskContext(ctx, db, DiskOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDiskBatchOfOne runs the same program over the same database
// as the only member of a batch: its ratio to BenchmarkRunDisk is what the
// batch driver's per-member vector machinery costs a single query (the
// number ROADMAP's "scalar = batch of one" slice has to bring to 1).
func BenchmarkRunDiskBatchOfOne(b *testing.B) {
	db, e := benchDisk(b)
	ctx := context.Background()
	members := []BatchMember{{E: e, AuxInSlot: -1, AuxOutSlot: -1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RunDiskBatch(ctx, db, members, DiskBatchOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep isolates what the drivers pay per node once the tables
// are warm: one δA step (record bits → signature class → state) plus one
// δB step and its query mask, on the dense StepCache tables.
func BenchmarkStep(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 1<<12-1))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, t.Names())
	res, err := e.RunContext(context.Background(), t, RunOpts{KeepStates: true})
	if err != nil {
		b.Fatal(err)
	}
	// One inner node of the chain, replayed from the recorded run: its own
	// bottom-up step, and the top-down step into its next sibling.
	v := tree.NodeID(t.Len() / 2)
	next := t.Second(v)
	rec := storage.Record{Label: uint16(t.Label(v)), HasSecond: true}.Encode()
	right, tdv := res.BUStateOf[next], res.TDStateOf[v]
	cache := e.Share().NewStepCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := cache.BUStep(NoState, right, cache.SigID(rec, false, 0))
		td := cache.TDStep(tdv, right, 2)
		stepSink += uint64(bu) + cache.QueryMask(td)
	}
}

// stepSink keeps BenchmarkStep's result live.
var stepSink uint64

// BenchmarkTransitionCold isolates one lazy transition computation
// (LTUR + Contract + interning) by resetting the engine each round.
func BenchmarkTransitionCold(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 255))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(c, t.Names())
		if _, err := e.RunContext(context.Background(), t, RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
