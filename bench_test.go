// Benchmarks regenerating the paper's evaluation artifacts (see
// cmd/arbbench for arbitrary scales):
//
//   - BenchmarkFig5Create — Figure 5, database creation, one sub-bench
//     per dataset. b.N iterations create the database from scratch;
//     bytes/op reports throughput over the .arb size.
//   - BenchmarkFig6* — Figure 6, one sub-bench per query size and
//     thread. Each iteration evaluates one random query of that size
//     over the on-disk database with two linear scans.
//   - BenchmarkStreamVsEngine — the Section 1 trade-off: the one-pass
//     streaming matcher versus the two-pass engine on the same queries.
//   - BenchmarkParallel — the Sections 6.2/7 application: workers
//     sweeping a warm engine over a balanced infix tree.
//
// Scale is controlled with ARB_BENCH_SCALE (fraction of the paper's
// dataset sizes; default 1/128 keeps `go test -bench=.` under a few
// minutes — pass 1.0 for the paper's full sizes).
package arb_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"arb"
	"arb/internal/bench"
	"arb/internal/core"
	"arb/internal/parallel"
	"arb/internal/storage"
	"arb/internal/stream"
	"arb/internal/tree"
	"arb/internal/workload"
)

func benchScale() float64 {
	if s := os.Getenv("ARB_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1.0 / 128
}

// benchDir lazily creates the benchmark databases once per process.
var benchDir = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "arb-bench")
	if err != nil {
		return nil, err
	}
	_, bases, err := bench.Fig5(dir, benchScale())
	return bases, err
})

func BenchmarkFig5Create(b *testing.B) {
	scale := benchScale()
	for _, name := range []string{"Treebank", "ACGT-infix", "ACGT-flat", "SWISSPROT"} {
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			var bytes int64
			for i := 0; i < b.N; i++ {
				base := filepath.Join(dir, strconv.Itoa(i))
				var db *storage.DB
				var err error
				switch name {
				case "Treebank":
					db, _, err = workload.CreateTreebankDB(base, workload.DefaultTreebank(scale))
				case "SWISSPROT":
					db, _, err = workload.CreateSwissprotDB(base, workload.DefaultSwissprot(scale))
				default:
					seq := workload.Sequence(4, 1<<17-1)
					if name == "ACGT-flat" {
						db, err = workload.CreateFlatDB(base, seq)
					} else {
						db, err = workload.CreateInfixDB(base, seq)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				bytes = db.N * storage.NodeSize
				db.Close()
				os.Remove(base + ".arb")
				os.Remove(base + ".lab")
			}
			b.SetBytes(bytes)
		})
	}
}

// fig6Bench evaluates rotating queries of each size against the thread's
// database in secondary storage.
func fig6Bench(b *testing.B, th bench.Thread) {
	bases, err := benchDir()
	if err != nil {
		b.Fatal(err)
	}
	name := map[bench.Thread]string{
		bench.Treebank: "Treebank", bench.ACGTFlat: "ACGT-flat", bench.ACGTInfix: "ACGT-infix",
	}[th]
	db, err := storage.Open(bases[name])
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	for _, size := range []int{5, 10, 15} {
		b.Run("size="+strconv.Itoa(size), func(b *testing.B) {
			queries := th.Queries(size, 25)
			var selected int64
			b.SetBytes(db.N * storage.NodeSize * 2) // two linear scans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rx := queries[i%len(queries)]
				prog, err := rx.Program(th.RStep())
				if err != nil {
					b.Fatal(err)
				}
				c, err := core.Compile(prog)
				if err != nil {
					b.Fatal(err)
				}
				e := core.NewEngine(c, db.Names)
				res, _, err := e.RunDisk(db, core.DiskOpts{})
				if err != nil {
					b.Fatal(err)
				}
				selected += res.Count(prog.Queries()[0])
			}
			_ = selected
		})
	}
}

func BenchmarkFig6Treebank(b *testing.B)  { fig6Bench(b, bench.Treebank) }
func BenchmarkFig6ACGTFlat(b *testing.B)  { fig6Bench(b, bench.ACGTFlat) }
func BenchmarkFig6ACGTInfix(b *testing.B) { fig6Bench(b, bench.ACGTInfix) }

// BenchmarkStreamVsEngine compares the one-pass streaming matcher with
// the two-pass engine on identical Treebank path queries (in memory, so
// the comparison isolates per-node work).
func BenchmarkStreamVsEngine(b *testing.B) {
	bases, err := benchDir()
	if err != nil {
		b.Fatal(err)
	}
	db, err := storage.Open(bases["Treebank"])
	if err != nil {
		b.Fatal(err)
	}
	t, err := db.ReadTree(context.Background())
	db.Close()
	if err != nil {
		b.Fatal(err)
	}
	queries := bench.Treebank.Queries(8, 25)

	b.Run("stream-1pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := stream.Compile(queries[i%len(queries)].StreamQuery())
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewCountingSession()
			if err := tree.Emit(t, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine-2pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := queries[i%len(queries)].Program(bench.Treebank.RStep())
			if err != nil {
				b.Fatal(err)
			}
			e, err := arb.NewEngine(prog, t.Names())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(t, core.RunOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallel sweeps worker counts over a balanced infix tree with
// a warm engine (the steady state of Sections 6.2/7).
func BenchmarkParallel(b *testing.B) {
	t := workload.InfixTree(workload.Sequence(4, 1<<18-1))
	rx := workload.PathRegex{W1: []string{"T", "A"}, W2: []string{"C"}, W3: []string{"G"}}
	prog, err := rx.Program(workload.RInfix)
	if err != nil {
		b.Fatal(err)
	}
	e, err := arb.NewEngine(prog, t.Names())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := parallel.Run(e, t, 4); err != nil { // warm up
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parallel.Run(e, t, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
