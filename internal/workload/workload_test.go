package workload

import (
	"context"
	"math/rand"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tree"
	"arb/internal/xmlparse"
)

func TestSequence(t *testing.T) {
	seq := Sequence(7, 1023)
	if len(seq) != 1023 {
		t.Fatalf("length %d, want 1023", len(seq))
	}
	for i, c := range seq {
		if c != 'A' && c != 'C' && c != 'G' && c != 'T' {
			t.Fatalf("byte %q at %d", c, i)
		}
	}
	if string(Sequence(7, 1023)) != string(seq) {
		t.Fatal("Sequence is not deterministic")
	}
	if string(Sequence(8, 1023)) == string(seq) {
		t.Fatal("different seeds gave the same sequence")
	}
}

func TestFlatTreeShape(t *testing.T) {
	seq := []byte("ACGT")
	tr := FlatTree(seq)
	if tr.Len() != 5 {
		t.Fatalf("got %d nodes, want 5", tr.Len())
	}
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}
	// Root, then the symbols along a NextSibling chain.
	v := tr.First(0)
	for i := range seq {
		name, _ := tr.Names().TagName(tr.Label(v))
		if name != string(seq[i]) {
			t.Fatalf("symbol %d is %s, want %c", i, name, seq[i])
		}
		v = tr.Second(v)
	}
	if v != tree.None {
		t.Fatal("trailing nodes after the sequence")
	}
}

func TestInfixTreeShape(t *testing.T) {
	// Figure 4(b): sequence of length 2^3-1 gives a complete binary tree
	// of depth 3 below the root.
	seq := []byte("ACGTACG")
	tr := InfixTree(seq)
	if tr.Len() != 8 {
		t.Fatalf("got %d nodes, want 8", tr.Len())
	}
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}
	// In-order traversal of the infix tree spells the sequence.
	var inorder []byte
	var walk func(v tree.NodeID)
	walk = func(v tree.NodeID) {
		if v == tree.None {
			return
		}
		walk(tr.First(v))
		name, _ := tr.Names().TagName(tr.Label(v))
		inorder = append(inorder, name[0])
		walk(tr.Second(v))
	}
	walk(tr.First(0))
	if string(inorder) != string(seq) {
		t.Fatalf("in-order %q, want %q", inorder, seq)
	}
}

func TestInfixTreeComplete(t *testing.T) {
	seq := Sequence(1, 1<<6-1) // depth 6
	tr := InfixTree(seq)
	// Every non-leaf level is full: node count 2^6-1+1.
	if tr.Len() != 1<<6 {
		t.Fatalf("got %d nodes, want %d", tr.Len(), 1<<6)
	}
	var depth func(v tree.NodeID) int
	depth = func(v tree.NodeID) int {
		if v == tree.None {
			return 0
		}
		d1, d2 := depth(tr.First(v)), depth(tr.Second(v))
		if d1 != d2 {
			t.Fatalf("unbalanced at node %d: %d vs %d", v, d1, d2)
		}
		return d1 + 1
	}
	if d := depth(tr.First(0)); d != 6 {
		t.Fatalf("depth %d, want 6", d)
	}
}

func TestCreateFlatAndInfixDBMatchTrees(t *testing.T) {
	seq := Sequence(3, 127)
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		create func(base string, seq []byte) (*storage.DB, error)
		build  func(seq []byte) *tree.Tree
	}{
		{"flat", CreateFlatDB, FlatTree},
		{"infix", CreateInfixDB, InfixTree},
	} {
		db, err := c.create(filepath.Join(dir, c.name), seq)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := db.ReadTree(context.Background())
		db.Close()
		if err != nil {
			t.Fatalf("%s: ReadTree: %v", c.name, err)
		}
		want := c.build(seq)
		if got.String() != want.String() {
			t.Fatalf("%s: streamed DB differs from in-memory tree", c.name)
		}
	}
}

func TestRandomPathRegex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for size := 3; size <= 15; size++ {
		for i := 0; i < 50; i++ {
			r := RandomPathRegex(rng, size, ACGTAlphabet)
			if r.Size() != size {
				t.Fatalf("size %d, want %d", r.Size(), size)
			}
			if len(r.W1) == 0 || len(r.W2) == 0 || len(r.W3) == 0 {
				t.Fatalf("empty word in %v", r)
			}
		}
	}
}

func TestTMNFSourcePaperExample(t *testing.T) {
	r := PathRegex{W1: []string{"S", "VP"}, W2: []string{"NP", "PP"}, W3: []string{"NP"}}
	want := "QUERY :- V.Label[S].FirstChild.NextSibling*.Label[VP].(FirstChild.NextSibling*.Label[NP].FirstChild.NextSibling*.Label[PP])*.FirstChild.NextSibling*.Label[NP];"
	if got := r.TMNFSource(RTreebank); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	if r.String() != "S.VP.(NP.PP)*.NP" {
		t.Fatalf("String() = %s", r.String())
	}
}

// evalCount runs the regex program over a tree with the two-phase engine
// and returns the number of selected nodes.
func evalCount(t *testing.T, tr *tree.Tree, r PathRegex, rstep string) int64 {
	t.Helper()
	prog, err := r.Program(rstep)
	if err != nil {
		t.Fatalf("Program(%q): %v", rstep, err)
	}
	c, err := core.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(c, tr.Names())
	res, err := e.RunContext(context.Background(), tr, core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Count(prog.Queries()[0])
}

// oracleEndpoints counts the distinct endpoint positions of matching
// backward walks directly on the sequence: position e is selected iff
// reverse(w1 w2^k w3) occurs in seq starting at e, for some k >= 0.
func oracleEndpoints(seq []byte, r PathRegex) int64 {
	rev := func(w []string) string {
		var b strings.Builder
		for i := len(w) - 1; i >= 0; i-- {
			b.WriteString(w[i])
		}
		return b.String()
	}
	re := regexp.MustCompile("^" + rev(r.W3) + "(" + rev(r.W2) + ")*" + rev(r.W1))
	var count int64
	for e := 0; e < len(seq); e++ {
		if re.Match(seq[e:]) {
			count++
		}
	}
	return count
}

// TestFlatInfixSelectedCountsAgree is the paper's cross-check: the same
// regexes on ACGT-flat (bottom-up, via invNextSibling) and ACGT-infix
// (sideways caterpillar) select the same number of nodes, both equal to
// direct string matching on the underlying sequence.
func TestFlatInfixSelectedCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seq := Sequence(5, 1<<9-1)
	flat := FlatTree(seq)
	infix := InfixTree(seq)
	for size := 3; size <= 8; size++ {
		for i := 0; i < 5; i++ {
			r := RandomPathRegex(rng, size, ACGTAlphabet)
			want := oracleEndpoints(seq, r)
			if got := evalCount(t, flat, r, RFlat); got != want {
				t.Fatalf("flat: regex %s: %d selected, oracle %d", r, got, want)
			}
			if got := evalCount(t, infix, r, RInfix); got != want {
				t.Fatalf("infix: regex %s: %d selected, oracle %d", r, got, want)
			}
		}
	}
}

func TestTreebankStats(t *testing.T) {
	cfg := TreebankConfig{Seed: 1, Sentences: 500}
	tr, err := TreebankTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elems, chars := nodeCounts(tr)
	if ratio := float64(chars) / float64(elems); ratio < 9 || ratio > 15 {
		t.Fatalf("char/elem ratio %.2f outside the Treebank band [9, 15]", ratio)
	}
	if n := tr.Names().Len(); n != 251 {
		t.Fatalf("%d tags, want 251 (as in Figure 5)", n)
	}
	if d := slices.Max(tr.DocDepth()); d > 12 {
		t.Fatalf("document depth %d, want shallow parse trees", d)
	}
	// Determinism.
	tr2, err := TreebankTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != tr2.Len() {
		t.Fatal("TreebankTree is not deterministic")
	}
}

func TestSwissprotStats(t *testing.T) {
	cfg := SwissprotConfig{Seed: 2, Entries: 300}
	tr, err := SwissprotTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elems, chars := nodeCounts(tr)
	if ratio := float64(chars) / float64(elems); ratio < 22 || ratio > 33 {
		t.Fatalf("char/elem ratio %.2f outside the Swissprot band [22, 33]", ratio)
	}
	if n := tr.Names().Len(); n != 48 {
		t.Fatalf("%d tags, want 48 (as in Figure 5)", n)
	}
}

func nodeCounts(t *tree.Tree) (elems, chars int) {
	for v := 0; v < t.Len(); v++ {
		if t.Label(tree.NodeID(v)).IsChar() {
			chars++
		} else {
			elems++
		}
	}
	return
}

func TestCreateTreebankDBStats(t *testing.T) {
	base := filepath.Join(t.TempDir(), "tb")
	db, stats, err := CreateTreebankDB(base, TreebankConfig{Seed: 1, Sentences: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := stats.ElemNodes + stats.CharNodes
	if db.N != n {
		t.Fatalf("db has %d nodes, stats say %d", db.N, n)
	}
	// Figure 5 invariant: .arb = 2 bytes/node.
	if stats.ArbBytes != 2*n {
		t.Fatalf(".arb size %d for %d nodes", stats.ArbBytes, n)
	}
	// The .lab file records only tags that actually occur; at 100
	// sentences a few of the 246 POS fillers may not have been drawn.
	if stats.Tags < 240 || stats.Tags > 251 {
		t.Fatalf("%d tags, want close to 251", stats.Tags)
	}
}

// selectedNodes runs the regex program over a tree with the two-phase
// engine and returns the selected nodes in document order.
func selectedNodes(t *testing.T, tr *tree.Tree, r PathRegex, rstep string) []tree.NodeID {
	t.Helper()
	prog, err := r.Program(rstep)
	if err != nil {
		t.Fatalf("Program(%q): %v", rstep, err)
	}
	c, err := core.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(c, tr.Names()).RunContext(context.Background(), tr, core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Selected(prog.Queries()[0])
}

// TestTreebankRegexFixedDocument pins the Treebank thread's selections on
// one small document. A regex selects the endpoint of every downward walk
// that spells it, from any start node; character nodes take document
// order IDs but are never selected.
func TestTreebankRegexFixedDocument(t *testing.T) {
	// r=0, a=1, b=2, a=3, 'h'=4, 'i'=5, c=6.
	tr, err := xmlparse.ParseTree(strings.NewReader(`<r><a><b/></a><a>hi<c/></a></r>`))
	if err != nil {
		t.Fatal(err)
	}
	word := func(s string) []string { return strings.Split(s, ".") }
	cases := []struct {
		w1, w2, w3 string
		want       []tree.NodeID
	}{
		{"r", "a", "b", []tree.NodeID{2}},
		{"r", "a", "c", []tree.NodeID{6}},
		{"r", "b", "a", []tree.NodeID{1, 3}},
		{"a", "b", "c", []tree.NodeID{6}},
		{"r.a", "b", "b", []tree.NodeID{2}},
		{"a", "a", "a", nil},
		{"b", "c", "c", nil},
	}
	for _, c := range cases {
		r := PathRegex{W1: word(c.w1), W2: word(c.w2), W3: word(c.w3)}
		t.Run(r.String(), func(t *testing.T) {
			if got := selectedNodes(t, tr, r, RTreebank); !slices.Equal(got, c.want) {
				t.Fatalf("selected %v, want %v", got, c.want)
			}
		})
	}
}

// TestTreebankRegexMatchesRootPaths checks the Treebank thread against an
// independent oracle: on random trees with single-letter tags, an element
// is selected iff a suffix of its root path, read as a string of tags,
// matches the regex under the standard library's regexp.
func TestTreebankRegexMatchesRootPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []string{"a", "b", "c"}
	for iter := 0; iter < 150; iter++ {
		tr := testutil.RandomTree(rng, 40)
		r := RandomPathRegex(rng, 3+rng.Intn(4), alphabet)
		re := regexp.MustCompile("(" + strings.Join(r.W1, "") + ")(" +
			strings.Join(r.W2, "") + ")*(" + strings.Join(r.W3, "") + ")$")
		got := map[tree.NodeID]bool{}
		for _, v := range selectedNodes(t, tr, r, RTreebank) {
			got[v] = true
		}
		paths := rootPaths(tr)
		for v := 0; v < tr.Len(); v++ {
			id := tree.NodeID(v)
			want := !tr.Label(id).IsChar() && re.MatchString(paths[v])
			if got[id] != want {
				t.Fatalf("iter %d: regex %s, node %d with root path %q: selected %v, want %v",
					iter, r, v, paths[v], got[id], want)
			}
		}
	}
}

// rootPaths returns, per element node, its root path as a string of tag
// names (single-letter tags assumed); character nodes get "".
func rootPaths(t *tree.Tree) []string {
	n := t.Len()
	paths := make([]string, n)
	// A first child's document parent is the node itself; a second
	// child's is the node's own document parent.
	docParent := make([]tree.NodeID, n)
	docParent[0] = tree.None
	for v := 0; v < n; v++ {
		if c := t.First(tree.NodeID(v)); c != tree.None {
			docParent[c] = tree.NodeID(v)
		}
		if c := t.Second(tree.NodeID(v)); c != tree.None {
			docParent[c] = docParent[v]
		}
	}
	for v := 0; v < n; v++ {
		l := t.Label(tree.NodeID(v))
		if l.IsChar() {
			continue
		}
		name, _ := t.Names().TagName(l)
		if p := docParent[v]; p == tree.None {
			paths[v] = name
		} else {
			paths[v] = paths[p] + name
		}
	}
	return paths
}
