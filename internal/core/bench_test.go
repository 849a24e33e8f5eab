package core

import (
	"context"
	"math/rand"
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

// benchShapes are the databases the disk benchmarks run on: the right-deep
// 65 k-node chain of BenchmarkRunWarm, as deep as it is long, and a 0.62
// M-node Treebank-like document, shallow and wide like the benchmark
// corpus. Each comes with eight of the paper's regular path programs over
// its alphabet, walking its R step; the first is the one a scalar run
// evaluates.
var benchShapes = []struct {
	name   string
	create func(base string) (*storage.DB, error)
	regex  func(rng *rand.Rand) (*tmnf.Program, error)
}{
	{"rightdeep", func(base string) (*storage.DB, error) {
		return workload.CreateFlatDB(base, workload.Sequence(4, 1<<16-1))
	}, func(rng *rand.Rand) (*tmnf.Program, error) {
		return workload.RandomPathRegex(rng, 3+rng.Intn(4), []string{"A", "C", "G", "T"}).Program(workload.RFlat)
	}},
	{"treebank", func(base string) (*storage.DB, error) {
		db, _, err := workload.CreateTreebankDB(base, workload.TreebankConfig{Seed: 1, Sentences: 2000})
		return db, err
	}, func(rng *rand.Rand) (*tmnf.Program, error) {
		return workload.RandomPathRegex(rng, 5+rng.Intn(11), workload.GrammarAlphabet).Program(workload.RTreebank)
	}},
}

// benchDisk runs bench on every shape with its database and eight warm
// engines, and sets the bytes to the records of both scans — so MB/s is
// record bandwidth and the ratios between the disk benchmarks are per node.
func benchDisk(b *testing.B, bench func(b *testing.B, db *storage.DB, engines []*Engine)) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			db, err := shape.create(filepath.Join(b.TempDir(), "db"))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			rng := rand.New(rand.NewSource(25))
			engines := make([]*Engine, 8)
			for i := range engines {
				prog, err := shape.regex(rng)
				if err != nil {
					b.Fatal(err)
				}
				c, err := Compile(prog)
				if err != nil {
					b.Fatal(err)
				}
				engines[i] = NewEngine(c, db.Names)
				if _, _, err := engines[i].RunDiskContext(context.Background(), db, DiskOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(db.N * storage.NodeSize * 2)
			b.ResetTimer()
			bench(b, db, engines)
		})
	}
}

// BenchmarkRunDisk measures the two-linear-scan secondary-storage driver
// (including writing and re-reading the temporary state file).
func BenchmarkRunDisk(b *testing.B) {
	benchDisk(b, func(b *testing.B, db *storage.DB, engines []*Engine) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engines[0].RunDiskContext(context.Background(), db, DiskOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkForwardScan times phase 2 of a Treebank regular path program,
// whose records decide its bottom-up states, warm and with one worker:
// "forward" is the one forward scan that replaces both phases, each node's
// bottom-up state loaded from its record's entry in the step cache;
// "twoscans" forces both phases, each node's state read back from the
// state file. Each reports its phase 2 per node (phase2-ns/node) beside
// the whole run's ns/op.
func BenchmarkForwardScan(b *testing.B) {
	shape := benchShapes[1]
	db, err := shape.create(filepath.Join(b.TempDir(), "db"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	prog, err := shape.regex(rand.New(rand.NewSource(25)))
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, db.Names)
	if !e.Forward() {
		b.Fatal("a Treebank regular path program is not admitted to a forward scan")
	}
	for _, twoScans := range []bool{false, true} {
		name := "forward"
		if twoScans {
			name = "twoscans"
		}
		b.Run(name, func(b *testing.B) {
			defer func(off bool) { oneScanOff = off }(oneScanOff)
			oneScanOff = twoScans
			ctx := context.Background()
			if _, _, err := e.RunDiskContext(ctx, db, DiskOpts{NoPrune: true}); err != nil {
				b.Fatal(err)
			}
			rs := &RunStats{}
			b.ReportAllocs()
			b.SetBytes(db.N * storage.NodeSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.RunDiskContext(ctx, db, DiskOpts{NoPrune: true, Run: rs}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.Snapshot().Phase2Time.Nanoseconds())/float64(db.N*int64(b.N)), "phase2-ns/node")
		})
	}
}

// BenchmarkRunDiskBatchOfOne runs the same program over the same database
// as the only member of a batch: a lane of one, which steps the member's
// engine as a scalar run does, so its ratio to BenchmarkRunDisk is about 1.
func BenchmarkRunDiskBatchOfOne(b *testing.B) {
	benchDisk(b, func(b *testing.B, db *storage.DB, engines []*Engine) {
		runBatch(b, db, engines[:1], nil)
	})
}

// BenchmarkRunDiskBatch8 runs all eight programs as one batch: one lane,
// stepping the product of their automata. Its ratio to BenchmarkRunDisk
// is what the batch costs beyond one scalar run. "fresh" builds the
// product afresh in every run, as a batch whose products nothing keeps;
// "kept" is a PreparedBatch's second and later Execs: the product, kept
// from an untimed first run, and its leader cache are warm.
func BenchmarkRunDiskBatch8(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		benchDisk(b, func(b *testing.B, db *storage.DB, engines []*Engine) {
			runBatch(b, db, engines, nil)
		})
	})
	b.Run("kept", func(b *testing.B) {
		benchDisk(b, func(b *testing.B, db *storage.DB, engines []*Engine) {
			kept := &Products{}
			b.StopTimer()
			runBatchOnce(b, db, engines, kept)
			b.StartTimer()
			runBatch(b, db, engines, kept)
		})
	})
}

func runBatch(b *testing.B, db *storage.DB, engines []*Engine, kept *Products) {
	for i := 0; i < b.N; i++ {
		runBatchOnce(b, db, engines, kept)
	}
}

func runBatchOnce(b *testing.B, db *storage.DB, engines []*Engine, kept *Products) {
	members := make([]BatchMember, len(engines))
	for i, e := range engines {
		members[i] = BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}
	}
	if _, _, _, err := RunDiskBatch(context.Background(), db, members, DiskBatchOpts{Products: kept}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStep isolates what the drivers pay per node once the tables
// are warm: one δA step (record bits → signature class → state) plus one
// δB step in the form the phase-2 kernel takes it — the dense entry, whose
// selects bit says whether to load the state's query mask — on the dense
// StepCache tables.
func BenchmarkStep(b *testing.B) {
	t := workload.FlatTree(workload.Sequence(4, 1<<12-1))
	prog := benchProgram(b)
	c, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(c, t.Names())
	var bu, td []StateID
	e.tables.Write(func(a *automaton) { bu, td = treeStates(a, t) })
	// One inner node of the chain, replayed from its states: its own
	// bottom-up step, and the top-down step into its next sibling.
	v := tree.NodeID(t.Len() / 2)
	next := t.Second(v)
	rec := storage.Record{Label: uint16(t.Label(v)), HasSecond: true}.Encode()
	right, tdv := bu[next], td[v]
	cache := newStepCache(e.Share(), e.names)
	cache.TDStep(tdv, right, 2)
	if cache.tdHit(tdv, right, 2) == 0 {
		b.Fatal("the δB step is not in the dense table")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := cache.BUStep(NoState, right, cache.SigID(rec, false, 0))
		entry := cache.tdHit(tdv, right, 2)
		td, mask := entry&^tdSelects-1, uint64(0)
		if entry < 0 {
			mask = cache.QueryMask(td)
		}
		stepSink += uint64(bu) + uint64(td) + mask
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
