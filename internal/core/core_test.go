package core

import (
	"context"
	"math/rand"
	"testing"

	"arb/internal/edb"
	"arb/internal/horn"
	"arb/internal/testutil"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// example43 is the running example program of Examples 4.3, 4.5 and 4.7.
const example43 = `
P1 :- Root;
P2 :- P1.FirstChild;
P3 :- P2.FirstChild;
P4 :- P3, Leaf;
P5 :- P4.invFirstChild;
Q  :- P5.invFirstChild;
`

// chainA builds the three-node tree of Example 4.5: <a><a><a/></a></a>.
func chainA(t *testing.T) *tree.Tree {
	t.Helper()
	tr, err := tree.BuildUnranked(tree.UNode{Tag: "a", Children: []tree.UNode{
		{Tag: "a", Children: []tree.UNode{{Tag: "a"}}},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// treeStates runs Algorithm 4.6 over t through e's own transitions —
// ReachableStates over the nodes in reverse preorder, then RootTrueSet and
// TruePreds in preorder — and returns every node's bottom-up and top-down
// state, which the drivers keep to themselves.
func treeStates(e *automaton, t *tree.Tree) (bu, td []StateID) {
	n := tree.NodeID(t.Len())
	bu, td = make([]StateID, n), make([]StateID, n)
	state := func(v tree.NodeID) StateID {
		if v == tree.None {
			return NoState
		}
		return bu[v]
	}
	for v := n - 1; v >= 0; v-- {
		bu[v] = e.ReachableStates(state(t.First(v)), state(t.Second(v)), e.SigID(edb.SigOf(t, v)))
	}
	td[0] = e.RootTrueSet(bu[0])
	for v := range n {
		for k, c := range []tree.NodeID{t.First(v), t.Second(v)} {
			if c != tree.None {
				td[c] = e.TruePreds(td[v], bu[c], k+1)
			}
		}
	}
	return bu, td
}

// TestPropLocalExample43 checks the rule-group split of Example 4.3.
func TestPropLocalExample43(t *testing.T) {
	p := tmnf.MustParse(example43)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	u := c.U
	pred := func(name string) horn.Atom {
		q, ok := p.Pred(name)
		if !ok {
			t.Fatalf("missing pred %s", name)
		}
		return u.LocalAtom(int(q))
	}
	s1 := func(name string) horn.Atom { return u.PushDown(1, pred(name)) }

	// local_rules = {P1 <- Root; P4 <- P3 /\ Leaf}
	if len(c.Local) != 2 {
		t.Fatalf("got %d local rules, want 2", len(c.Local))
	}
	if c.Local[0].Head != pred("P1") || len(c.Local[0].Body) != 1 || !u.IsEDB(c.Local[0].Body[0]) {
		t.Errorf("local rule 0 wrong: %v", c.Local[0])
	}
	if c.Local[1].Head != pred("P4") || len(c.Local[1].Body) != 2 {
		t.Errorf("local rule 1 wrong: %v", c.Local[1])
	}

	// left_rules = {P2^1 <- P1; P3^1 <- P2; P5 <- P4^1; Q <- P5^1}
	if len(c.Left) != 4 {
		t.Fatalf("got %d left rules, want 4: %v", len(c.Left), c.Left)
	}
	wantLeft := []horn.Rule{
		horn.NewRule(s1("P2"), pred("P1")),
		horn.NewRule(s1("P3"), pred("P2")),
		horn.NewRule(pred("P5"), s1("P4")),
		horn.NewRule(pred("Q"), s1("P5")),
	}
	for i, w := range wantLeft {
		if c.Left[i].Head != w.Head || len(c.Left[i].Body) != 1 || c.Left[i].Body[0] != w.Body[0] {
			t.Errorf("left rule %d = %v, want %v", i, c.Left[i], w)
		}
	}

	// right_rules = {} ; downward_rules_1 = {P2^1 <- P1; P3^1 <- P2} ;
	// downward_rules_2 = {}.
	if len(c.Right) != 0 || len(c.Down2) != 0 {
		t.Errorf("right=%v down2=%v, want empty", c.Right, c.Down2)
	}
	if len(c.Down1) != 2 {
		t.Fatalf("got %d down1 rules, want 2", len(c.Down1))
	}
}

// TestExample45Residuals reproduces the residual programs ρA(v2), ρA(v1),
// ρA(v0) of Example 4.5 exactly.
func TestExample45Residuals(t *testing.T) {
	p := tmnf.MustParse(example43)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := chainA(t)
	e := newAutomaton(c, tr.Names())
	bu, _ := treeStates(&e, tr)
	u := c.U
	pred := func(name string) horn.Atom {
		q, _ := p.Pred(name)
		return u.LocalAtom(int(q))
	}
	want := []*horn.Program{
		// v0: {P1 <-; Q <-}
		{Rules: []horn.Rule{{Head: pred("P1")}, {Head: pred("Q")}}},
		// v1: {P5 <- P2}
		{Rules: []horn.Rule{horn.NewRule(pred("P5"), pred("P2"))}},
		// v2: {P4 <- P3}
		{Rules: []horn.Rule{horn.NewRule(pred("P4"), pred("P3"))}},
	}
	for v, w := range want {
		w.Canon()
		got := e.BUState(bu[v])
		if got.Key() != w.Key() {
			t.Errorf("rho_A(v%d) = %s, want %s", v,
				got.Format(c.AtomName), w.Format(c.AtomName))
		}
	}
}

// TestExample47TruePreds reproduces the top-down state assignments of
// Example 4.7 exactly: {P1,Q} for v0, {P2,P5} for v1, {P3,P4} for v2.
func TestExample47TruePreds(t *testing.T) {
	p := tmnf.MustParse(example43)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := chainA(t)
	e := newAutomaton(c, tr.Names())
	_, td := treeStates(&e, tr)
	want := [][]string{{"P1", "Q"}, {"P2", "P5"}, {"P3", "P4"}}
	for v, wantNames := range want {
		got := e.TDSet(td[v])
		if len(got) != len(wantNames) {
			t.Errorf("v%d true preds = %v, want %v", v, predNames(p, got), wantNames)
			continue
		}
		for i, q := range got {
			if p.PredName(q) != wantNames[i] {
				t.Errorf("v%d true preds = %v, want %v", v, predNames(p, got), wantNames)
				break
			}
		}
	}
	// Q selects exactly the root.
	q, _ := p.Pred("Q")
	if err := p.SetQueries("Q"); err != nil {
		t.Fatal(err)
	}
	// Re-run with query set.
	c2, _ := Compile(p)
	e2 := NewEngine(c2, tr.Names())
	res2, err := e2.RunContext(context.Background(), tr, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Selected(q); len(got) != 1 || got[0] != 0 {
		t.Errorf("Q selected %v, want [0]", got)
	}
}

func predNames(p *tmnf.Program, preds []tmnf.Pred) []string {
	out := make([]string, len(preds))
	for i, q := range preds {
		out[i] = p.PredName(q)
	}
	return out
}

// TestExample22EvenOdd evaluates the even/odd leaf-counting program of
// Example 2.2 and checks the root's predicate against a direct count.
func TestExample22EvenOdd(t *testing.T) {
	const example22 = `
Even :- Leaf, -Label[a];
Odd  :- Leaf, Label[a];
SFREven :- Even, LastSibling;
SFROdd  :- Odd, LastSibling;
FSEven :- SFREven.invNextSibling;
FSOdd  :- SFROdd.invNextSibling;
SFREven :- FSEven, Even;
SFROdd  :- FSEven, Odd;
SFROdd  :- FSOdd, Even;
SFREven :- FSOdd, Odd;
Even :- SFREven.invFirstChild;
Odd  :- SFROdd.invFirstChild;
`
	p := tmnf.MustParse(example22)
	if err := p.SetQueries("Even", "Odd"); err != nil {
		t.Fatal(err)
	}
	even, _ := p.Pred("Even")
	odd, _ := p.Pred("Odd")
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := testutil.RandomTree(rng, 50)
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, tr.Names())
		res, err := e.RunContext(context.Background(), tr, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// Direct count: leaves of the *binary* tree labeled "a" in each
		// node's binary subtree. Example 2.2 annotates node v Even iff its
		// subtree contains an even number of leaves labeled a.
		aLabel, haveA := tr.Names().Lookup("a")
		counts := make([]int, tr.Len())
		for v := tr.Len() - 1; v >= 0; v-- {
			n := 0
			if c := tr.First(tree.NodeID(v)); c != tree.None {
				n += counts[c]
			}
			if c := tr.Second(tree.NodeID(v)); c != tree.None {
				n += counts[c]
			}
			if !tr.HasFirst(tree.NodeID(v)) && haveA && tr.Label(tree.NodeID(v)) == aLabel {
				n++
			}
			counts[v] = n
		}
		// The program counts leaves in the subtree reachable via
		// FirstChild and sibling chains below v... its "subtree" is the
		// paper's unranked subtree: node itself plus descendants. In the
		// binary encoding that is v plus the binary subtree of First(v).
		for v := 0; v < tr.Len(); v++ {
			subtree := 0
			if c := tr.First(tree.NodeID(v)); c != tree.None {
				subtree = counts[c]
			}
			if !tr.HasFirst(tree.NodeID(v)) && haveA && tr.Label(tree.NodeID(v)) == aLabel {
				subtree++
			}
			wantEven := subtree%2 == 0
			if res.Holds(even, tree.NodeID(v)) != wantEven {
				t.Fatalf("seed %d node %d: Even=%v, want %v (count %d)",
					seed, v, res.Holds(even, tree.NodeID(v)), wantEven, subtree)
			}
			if res.Holds(odd, tree.NodeID(v)) != !wantEven {
				t.Fatalf("seed %d node %d: Odd=%v, want %v", seed, v, res.Holds(odd, tree.NodeID(v)), !wantEven)
			}
		}
	}
}

func TestSingleNodeTree(t *testing.T) {
	tr, err := tree.BuildUnranked(tree.UNode{Tag: "only"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := tmnf.MustParse(`QUERY :- Root, Leaf, LastSibling;`)
	c, _ := Compile(p)
	e := NewEngine(c, tr.Names())
	res, err := e.RunContext(context.Background(), tr, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Count(p.Queries()[0]); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

func TestEmptyTreeRejected(t *testing.T) {
	p := tmnf.MustParse(`QUERY :- Root;`)
	c, _ := Compile(p)
	e := NewEngine(c, tree.NewNames())
	if _, err := e.RunContext(context.Background(), tree.New(nil), RunOpts{}); err == nil {
		t.Error("empty tree accepted")
	}
}

// TestTransitionCacheReuse: running the same engine on the same tree twice
// must not compute any new transitions the second time.
func TestTransitionCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := testutil.RandomTree(rng, 200)
	p := testutil.RandomProgramParsed(rng, 4, 10)
	c, _ := Compile(p)
	e := NewEngine(c, tr.Names())
	if _, err := e.RunContext(context.Background(), tr, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats()
	if _, err := e.RunContext(context.Background(), tr, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	s2 := e.Stats()
	if s2.BUTransitions != s1.BUTransitions || s2.TDTransitions != s1.TDTransitions {
		t.Errorf("transitions recomputed: %+v then %+v", s1, s2)
	}
}

// TestStatsPopulated: a run reports plausible statistics. The program's
// bottom-up states decide it, so a default run is one scan and computes no
// top-down state at all; the two-scan run fills every column.
func TestStatsPopulated(t *testing.T) {
	forceTwoScans(t)
	tr := chainA(t)
	p := tmnf.MustParse(example43)
	c, _ := Compile(p)
	e := NewEngine(c, tr.Names())
	if _, err := e.RunContext(context.Background(), tr, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.BUTransitions == 0 || s.TDTransitions == 0 || s.BUStates == 0 || s.TDStates == 0 {
		t.Errorf("stats not populated: %+v", s)
	}
	if s.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", s.Nodes)
	}
}

// TestResultWalkAndCount exercises the bitset result accessors.
func TestResultWalkAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testutil.RandomTree(rng, 100)
	p := tmnf.MustParse(`QUERY :- Label[a];`)
	c, _ := Compile(p)
	e := NewEngine(c, tr.Names())
	res, err := e.RunContext(context.Background(), tr, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	q := p.Queries()[0]
	sel := res.Selected(q)
	if int64(len(sel)) != res.Count(q) {
		t.Errorf("len(Selected) %d != Count %d", len(sel), res.Count(q))
	}
	stop := 0
	res.Walk(q, func(v tree.NodeID) bool {
		stop++
		return stop < 2
	})
	if len(sel) >= 2 && stop != 2 {
		t.Errorf("Walk early stop failed: %d", stop)
	}
	for _, v := range sel {
		if !res.Holds(q, v) {
			t.Errorf("Holds(%d) false for selected node", v)
		}
	}

	// Ids outside [0, Len()) are never selected: past the last word of a
	// 3-node result, and before node 0 of a result whose node 63 (bit 63
	// of word 0) is selected.
	if NewResult(p, 3).Holds(q, 64) {
		t.Error("Holds(64) true on a 3-node result")
	}
	r64 := NewResult(p, 64)
	r64.MarkMask(1, 63)
	if !r64.Holds(q, 63) || r64.Holds(q, -1) {
		t.Errorf("Holds(63), Holds(-1) = %v, %v on a result selecting node 63; want true, false", r64.Holds(q, 63), r64.Holds(q, -1))
	}
}
