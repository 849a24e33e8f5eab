package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/workload"
)

// forceTwoScans turns the one-scan path off for the rest of the test.
func forceTwoScans(t *testing.T) {
	t.Helper()
	oneScanOff = true
	t.Cleanup(func() { oneScanOff = false })
}

// rootPath selects the NP children of the root: a root-path condition.
const rootPath = `R :- Root; D :- R.FirstChild; D :- D.NextSibling; QUERY :- D, Label[NP];`

// labelSet is the program selecting every node labeled one of tags.
func labelSet(tags ...string) string {
	var b strings.Builder
	for _, tag := range tags {
		fmt.Fprintf(&b, "QUERY :- Label[%s]; ", tag)
	}
	return b.String()
}

// oneScanPool draws programs the analysis must admit — label sets, the
// node-local filters among filterPrograms, //a, a program with several
// query predicates — and programs it must reject: the filter that looks at
// a node's parent, //S[NP][VP][PP], whose bottom-up closure outgrows the
// caps, and the given number of root-path Treebank regexes. admitted says
// which is which.
func oneScanPool(t *testing.T, rng *rand.Rand, tags []string, regexes int) (pool []*tmnf.Program, admitted []bool) {
	t.Helper()
	add := func(src string, ok bool) {
		pool, admitted = append(pool, tmnf.MustParse(src)), append(admitted, ok)
	}
	for i := 0; i < 4; i++ {
		set := make([]string, 1+rng.Intn(4))
		for j := range set {
			set[j] = tags[rng.Intn(len(tags))]
		}
		add(labelSet(set...), true)
	}
	add(filterPrograms[0], true)
	add(filterPrograms[3], true)
	add(strings.ReplaceAll(descendantsLabeled, "Label[a]", "Label[NP]"), true)
	add(`Leaves :- Leaf; NPs :- Label[NP]; UpLeaf :- Leaves.invFirstChild; NPLeaves :- UpLeaf, NPs; Top :- Root;
	     QUERY :- NPLeaves; QUERY :- Top;`, true)
	add(filterPrograms[1], false)
	add(filterPrograms[2], false)
	add(rootPath, false)
	add(firstChildA, false)
	for i := 0; i < regexes; i++ {
		src := workload.RandomPathRegex(rng, 3+rng.Intn(6), workload.GrammarAlphabet).TMNFSource(workload.RTreebank)
		add(src, false)
	}
	return pool, admitted
}

// pinnedVerdicts is every verdict of the engine's analysis over
// oneScanPool's seed-1 draw with 20 regexes, one row per program: one-scan
// admission, prune admission, the live-label signature, s*'s residual
// program and the subsumption verdicts (label:child/root for each mentioned
// label, then the character and named-label defaults), "-" where the
// analysis withholds them. The rows were recorded from the three separate
// walks the one analysis replaced, so a row that moves is a verdict lost or
// gained.
const pinnedVerdicts = `
0 onescan=true prune=true live=[0 800000000 100000000 0] sub="" sum=256:true/true 260:true/true c:false/false n:false/false
1 onescan=true prune=true live=[0 800000000 4000100000000 0] sub="" sum=256:true/true 257:true/true 260:true/true c:false/false n:false/false
2 onescan=true prune=true live=[0 800000000 0 0] sub="" sum=256:true/true c:false/false n:false/false
3 onescan=true prune=true live=[0 800000000 4000100000000 0] sub="" sum=256:true/true 257:true/true 260:true/true c:false/false n:false/false
4 onescan=true prune=true live=[4 800000000 0 0] sub="p1 <- p0;" sum=-
5 onescan=true prune=true live=[4 0 100000000 0] sub="p1 <- p0;" sum=-
6 onescan=true prune=true live=[0 800000000 0 0] sub="" sum=256:true/false c:false/false n:false/false
7 onescan=true prune=false live=[0 800000000 0 0] sub="-" sum=-
8 onescan=false prune=true live=[4 800020000 4000000000000 0] sub="p1 <- p0; p4 <- p3; p7 <- p6; p9 <- p2 p5;" sum=-
9 onescan=false prune=true live=[4 800000000 4000000000000 0] sub="p1 <- p0;" sum=-
10 onescan=false prune=true live=[0 800000000 0 0] sub="" sum=-
11 onescan=false prune=true live=[0 1 0 800000000000] sub="" sum=-
12 onescan=false prune=true live=[4 800020000 4000000000000 0] sub="p0 <- p20; p1 <-;" sum=-
13 onescan=false prune=true live=[4 800020000 4000000000000 0] sub="p0 <- p17; p1 <-;" sum=-
14 onescan=false prune=true live=[4 20000 4000000000000 0] sub="p0 <- p23; p1 <-;" sum=-
15 onescan=false prune=true live=[0 800020000 4000000000000 0] sub="p0 <- p11; p1 <-;" sum=-
16 onescan=false prune=true live=[4 800000000 4000000000000 0] sub="p0 <- p11; p1 <-;" sum=-
17 onescan=false prune=true live=[4 800000000 4000000000000 0] sub="p0 <- p11; p1 <-;" sum=-
18 onescan=false prune=true live=[4 800020000 0 0] sub="p0 <- p14; p1 <-;" sum=-
19 onescan=false prune=true live=[0 800020000 4000000000000 0] sub="p0 <- p14; p1 <-;" sum=-
20 onescan=false prune=true live=[4 20000 4000000000000 0] sub="p0 <- p17; p1 <-;" sum=-
21 onescan=false prune=true live=[0 800020000 0 0] sub="p0 <- p14; p1 <-;" sum=-
22 onescan=false prune=true live=[0 20000 4000000000000 0] sub="p0 <- p11; p1 <-;" sum=-
23 onescan=false prune=true live=[4 800020000 4000000000000 0] sub="p0 <- p14; p1 <-;" sum=-
24 onescan=false prune=true live=[4 20000 4000000000000 0] sub="p0 <- p14; p1 <-;" sum=-
25 onescan=false prune=true live=[4 800020000 4000000000000 0] sub="p0 <- p20; p1 <-;" sum=-
26 onescan=false prune=true live=[4 800020000 4000000000000 0] sub="p0 <- p17; p1 <-;" sum=-
27 onescan=false prune=true live=[0 800020000 0 0] sub="p0 <- p8; p1 <-;" sum=-
28 onescan=false prune=true live=[0 800020000 0 0] sub="p0 <- p14; p1 <-;" sum=-
29 onescan=false prune=true live=[4 20000 0 0] sub="p0 <- p23; p1 <-;" sum=-
30 onescan=false prune=true live=[4 800020000 0 0] sub="p0 <- p17; p1 <-;" sum=-
31 onescan=false prune=true live=[4 20000 4000000000000 0] sub="p0 <- p14; p1 <-;" sum=-
`

// verdictRow renders e's verdicts as a row of pinnedVerdicts.
func verdictRow(e *Engine) string {
	a := e.analysis()
	sub := "-"
	if a.pruneOK {
		sub = a.subProg.String()
	}
	sum := "-"
	if s := e.SelectionSummary(); s != nil {
		var ls []tree.Label
		for l := range s.mentioned {
			ls = append(ls, l)
		}
		slices.Sort(ls)
		var b strings.Builder
		for _, l := range ls {
			fmt.Fprintf(&b, "%d:%v/%v ", l, s.child.labels[l], s.root.labels[l])
		}
		fmt.Fprintf(&b, "c:%v/%v n:%v/%v", s.child.charDefault, s.root.charDefault, s.child.namedDefault, s.root.namedDefault)
		sum = b.String()
	}
	return fmt.Sprintf("onescan=%v prune=%v live=%x sub=%q sum=%s", a.oneScan, a.pruneOK, a.live, sub, sum)
}

// TestOneScanAdmission checks the analysis's verdicts program by program:
// node-local selections are admitted to one scan, every root-path or
// parent condition is rejected, and every verdict — prune and subsumption
// too — is the pinned one. The analysis runs on tables of its own: the
// engine is left with s* at most, no top-down state and no transition.
func TestOneScanAdmission(t *testing.T) {
	names := namesWith(t, "NP", "VP", "PP", "S", "T3", "A", "C")
	pool, admitted := oneScanPool(t, rand.New(rand.NewSource(1)), []string{"NP", "VP", "T3"}, 20)
	var rows strings.Builder
	for i, prog := range pool {
		c, err := Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, names)
		if got := e.OneScan(); got != admitted[i] {
			t.Errorf("program %d: one-scan %v, want %v\n%s", i, got, admitted[i], prog)
		}
		fmt.Fprintf(&rows, "%d %s\n", i, verdictRow(e))
		if st := e.Stats(); st.TDStates != 0 || st.BUTransitions != 0 || st.TDTransitions != 0 || st.BUStates > 1 {
			t.Errorf("program %d: the analysis left %+v in the engine", i, st)
		}
	}
	if got := rows.String(); got != pinnedVerdicts[1:] {
		t.Errorf("verdicts moved:\n%s\nwant\n%s", got, pinnedVerdicts[1:])
	}
}

// TestOneScanRootWithSecondChild runs an admitted program over a tree whose
// root has a second child — a shape the analysis leaves out of its root
// configurations: here the root's state (an NP whose sibling chain holds a
// PP) is one no analysed root has, so the run must notice it, start over
// with two scans and answer as the oracle does.
func TestOneScanRootWithSecondChild(t *testing.T) {
	names := namesWith(t, "NP", "PP")
	np, _ := names.Lookup("NP")
	pp, _ := names.Lookup("PP")
	tr := tree.New(names)
	root := tr.AddNode(np)
	tr.SetFirst(root, tr.AddNode(np))
	tr.SetSecond(root, tr.AddNode(pp))
	prog := tmnf.MustParse(filterPrograms[0])
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, names)
	if !e.OneScan() {
		t.Fatal("//NP[PP] is not admitted")
	}
	img, err := storage.OpenTree(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, ds, err := e.RunDiskContext(context.Background(), img, DiskOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.OneScan != 0 {
		t.Fatalf("one-scan %d over a root with a second child", ds.OneScan)
	}
	sameAsNaive(t, prog, tr, nil, res, "root with a second child")
}
