package core

import (
	"context"
	"math/rand"
	"testing"

	"arb/internal/naive"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// The paper's Section 7 "multiple query evaluation": TMNF programs can
// define several node-selecting queries at once, answered together by
// the same two passes.

func TestMultipleQueriesOneRun(t *testing.T) {
	prog := tmnf.MustParse(`
		Leaves  :- Leaf;
		As      :- Label[a];
		ALeaves :- Leaves, As;
	`)
	if err := prog.SetQueries("Leaves", "As", "ALeaves"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for iter := 0; iter < 15; iter++ {
		tr := testutil.RandomTree(rng, 80)
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, tr.Names())
		res, err := e.RunContext(context.Background(), tr, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Evaluate(tr, prog)
		for _, q := range prog.Queries() {
			for v := 0; v < tr.Len(); v++ {
				if res.Holds(q, tree.NodeID(v)) != want.Holds(q, tree.NodeID(v)) {
					t.Fatalf("iter %d: %s(%d)", iter, prog.PredName(q), v)
				}
			}
		}
		// The conjunction query must be the intersection of the others.
		leaves, _ := prog.Pred("Leaves")
		as, _ := prog.Pred("As")
		aleaves, _ := prog.Pred("ALeaves")
		for v := 0; v < tr.Len(); v++ {
			id := tree.NodeID(v)
			if res.Holds(aleaves, id) != (res.Holds(leaves, id) && res.Holds(as, id)) {
				t.Fatalf("iter %d: ALeaves(%d) inconsistent", iter, v)
			}
		}
	}
}

// TestSixtyFourQueries exercises the query bitmask width (up to 64 query
// predicates per program).
func TestSixtyFourQueries(t *testing.T) {
	prog := tmnf.NewProgram()
	names := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		name := "Q" + string(rune('A'+i/26)) + string(rune('a'+i%26))
		p := prog.Intern(name)
		u := prog.InternUnary(tmnf.Unary{Kind: tmnf.UHasFirstChild, Neg: i%2 == 0})
		prog.AddRule(tmnf.Rule{Kind: tmnf.RuleLocal, Head: p, Body: []tmnf.LocalAtom{tmnf.UnaryAtom(u)}})
		names = append(names, name)
	}
	if err := prog.SetQueries(names...); err != nil {
		t.Fatal(err)
	}
	tr := tree.New(nil)
	root := tr.AddNode(tr.Names().MustIntern("r"))
	tr.SetFirst(root, tr.AddNode(tr.Names().MustIntern("x")))

	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, tr.Names())
	res, err := e.RunContext(context.Background(), tr, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range prog.Queries() {
		// Even i: Leaf (no first child) — true at the leaf only.
		wantRoot, wantLeaf := i%2 == 1, i%2 == 0
		if res.Holds(q, 0) != wantRoot || res.Holds(q, 1) != wantLeaf {
			t.Fatalf("query %d: root=%v leaf=%v", i, res.Holds(q, 0), res.Holds(q, 1))
		}
	}
}

// TestAuxPredicatesDifferential checks the Section 7 auxiliary-labeling
// mechanism against a rewritten program where the auxiliary predicate is
// inlined as a label test.
func TestAuxPredicatesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 20; iter++ {
		tr := testutil.RandomTree(rng, 60)

		// Aux[0] marks nodes labeled a; the program selects nodes whose
		// first child carries Aux[0].
		withAux := tmnf.MustParse(`
			M :- Aux[0];
			QUERY :- M.invFirstChild;
		`)
		inlined := tmnf.MustParse(`
			M :- Label[a];
			QUERY :- M.invFirstChild;
		`)
		a, ok := tr.Names().Lookup("a")
		if !ok {
			continue
		}
		aux := func(v tree.NodeID) uint16 {
			if tr.Label(v) == a {
				return 1
			}
			return 0
		}

		run := func(p *tmnf.Program, auxFn func(tree.NodeID) uint16) *Result {
			c, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(c, tr.Names())
			res, err := e.RunContext(context.Background(), tr, RunOpts{Aux: auxFn})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := run(withAux, aux)
		want := run(inlined, nil)
		for v := 0; v < tr.Len(); v++ {
			if got.Holds(withAux.Queries()[0], tree.NodeID(v)) != want.Holds(inlined.Queries()[0], tree.NodeID(v)) {
				t.Fatalf("iter %d node %d: aux and inlined runs disagree", iter, v)
			}
		}
	}
}

// TestResidualStatesBeatPowerset validates the paper's central empirical
// claim (Section 4.1): the number of distinct residual programs the
// deterministic automaton actually needs is far below the powerset bound
// 2^(2^IDB) — and in practice even far below 2^IDB.
func TestResidualStatesBeatPowerset(t *testing.T) {
	rx := workloadPathRegex()
	prog := tmnf.MustParse(rx)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	// Run over many random trees sharing a name table to converge the
	// state space.
	names := testutil.RandomTree(rng, 10).Names()
	e := NewEngine(c, names)
	for i := 0; i < 30; i++ {
		tr := testutil.RandomTreeWithNames(rng, names, 300)
		if _, err := e.RunContext(context.Background(), tr, RunOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	states := e.Stats().BUStates
	preds := prog.NumPreds()
	if states == 0 {
		t.Fatal("no states interned")
	}
	if states >= 1<<preds {
		t.Fatalf("%d residual-program states for %d predicates — no better than the 2^IDB powerset", states, preds)
	}
	t.Logf("%d predicates: %d residual-program states (vs 2^%d = %d assignments, 2^2^%d reachable-set bound)",
		preds, states, preds, 1<<preds, preds)
}

// workloadPathRegex is a size-7 top-down path query like the Figure 6
// Treebank thread's (inlined to avoid an import cycle with workload).
func workloadPathRegex() string {
	return `QUERY :- V.Label[a].FirstChild.NextSibling*.Label[b].` +
		`(FirstChild.NextSibling*.Label[a].FirstChild.NextSibling*.Label[c])*.` +
		`FirstChild.NextSibling*.Label[b];`
}
