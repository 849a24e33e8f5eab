package parallel

import (
	"context"
	"math/rand"
	"testing"

	"arb/internal/core"
	"arb/internal/naive"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

func engineFor(tb testing.TB, prog *tmnf.Program, names *tree.Names) *core.Engine {
	tb.Helper()
	c, err := core.Compile(prog)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	return core.NewEngine(c, names)
}

func TestRunMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 30; iter++ {
		tr := testutil.RandomTree(rng, 4000)
		prog := testutil.RandomProgramParsed(rng, 4, 8)

		seq, err := engineFor(t, prog, tr.Names()).RunContext(context.Background(), tr, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			par, err := RunContext(context.Background(), engineFor(t, prog, tr.Names()), tr, workers, core.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range prog.Queries() {
				if par.Count(q) != seq.Count(q) {
					t.Fatalf("iter %d workers %d: count %d, sequential %d\nprogram:\n%s",
						iter, workers, par.Count(q), seq.Count(q), prog)
				}
				for v := 0; v < tr.Len(); v++ {
					if par.Holds(q, tree.NodeID(v)) != seq.Holds(q, tree.NodeID(v)) {
						t.Fatalf("iter %d workers %d node %d: parallel %v, sequential %v",
							iter, workers, v, par.Holds(q, tree.NodeID(v)), seq.Holds(q, tree.NodeID(v)))
					}
				}
			}
		}
	}
}

func TestRunMatchesNaiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for iter := 0; iter < 25; iter++ {
		tr := testutil.RandomTree(rng, 50)
		prog := testutil.RandomProgramParsed(rng, 3, 6)
		par, err := RunContext(context.Background(), engineFor(t, prog, tr.Names()), tr, 3, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Evaluate(tr, prog)
		for _, q := range prog.Queries() {
			for v := 0; v < tr.Len(); v++ {
				if par.Holds(q, tree.NodeID(v)) != want.Holds(q, tree.NodeID(v)) {
					t.Fatalf("iter %d node %d: parallel %v, naive %v", iter, v,
						par.Holds(q, tree.NodeID(v)), want.Holds(q, tree.NodeID(v)))
				}
			}
		}
	}
}

// TestRunOnInfixSequence is the paper's parallel application: regular
// expression matching on a balanced infix tree.
func TestRunOnInfixSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	seq := workload.Sequence(6, 1<<12-1)
	tr := workload.InfixTree(seq)
	for i := 0; i < 5; i++ {
		r := workload.RandomPathRegex(rng, 5, workload.ACGTAlphabet)
		prog, err := r.Program(workload.RInfix)
		if err != nil {
			t.Fatal(err)
		}
		q := prog.Queries()[0]
		seqRes, err := engineFor(t, prog, tr.Names()).RunContext(context.Background(), tr, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := RunContext(context.Background(), engineFor(t, prog, tr.Names()), tr, 4, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if parRes.Count(q) != seqRes.Count(q) {
			t.Fatalf("regex %s: parallel %d, sequential %d", r, parRes.Count(q), seqRes.Count(q))
		}
	}
}

// TestRunDegenerateChain exercises the right-deep case where the frontier
// decomposition finds little parallelism but must stay correct (and not
// overflow any recursion).
func TestRunDegenerateChain(t *testing.T) {
	tr := workload.FlatTree(workload.Sequence(7, 50000))
	prog := tmnf.MustParse(`QUERY :- Label[A], LastSibling;`)
	par, err := RunContext(context.Background(), engineFor(t, prog, tr.Names()), tr, 4, core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := engineFor(t, prog, tr.Names()).RunContext(context.Background(), tr, core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	q := prog.Queries()[0]
	if par.Count(q) != seq.Count(q) {
		t.Fatalf("parallel %d, sequential %d", par.Count(q), seq.Count(q))
	}
}

func TestSharedEngineConcurrentWarmup(t *testing.T) {
	// Repeated runs over the same engine must reuse the caches; run with
	// -race to exercise the locking.
	tr := workload.InfixTree(workload.Sequence(8, 1<<10-1))
	prog := tmnf.MustParse(`QUERY :- V.Label[A].` + "(FirstChild.SecondChild*.-HasSecondChild | -HasFirstChild.invFirstChild*.invSecondChild)" + `.Label[C];`)
	e := engineFor(t, prog, tr.Names())
	var first int64 = -1
	for i := 0; i < 3; i++ {
		res, err := RunContext(context.Background(), e, tr, 8, core.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Count(prog.Queries()[0])
		if first == -1 {
			first = c
		} else if c != first {
			t.Fatalf("run %d: count %d, first run %d", i, c, first)
		}
	}
	if e.Stats().BUTransitions == 0 {
		t.Fatal("no transitions recorded")
	}
}
