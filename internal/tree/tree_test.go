package tree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// figure1 builds the unranked tree of Figure 1(a): v1 with children v2, v5,
// v6, where v2 has children v3 and v4. Its binary version (Figure 1(b)) has
// v2 as first child of v1, v3 as first child of v2, v5 as second child of
// v2, v4 as second child of v3, and v6 as second child of v5.
func figure1(t *testing.T) *Tree {
	t.Helper()
	tr, err := BuildUnranked(UNode{Tag: "v1", Children: []UNode{
		{Tag: "v2", Children: []UNode{{Tag: "v3"}, {Tag: "v4"}}},
		{Tag: "v5"},
		{Tag: "v6"},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFigure1BinaryEncoding(t *testing.T) {
	tr := figure1(t)
	if tr.Len() != 6 {
		t.Fatalf("got %d nodes, want 6", tr.Len())
	}
	// Preorder ids: v1=0 v2=1 v3=2 v4=3 v5=4 v6=5.
	want := []struct {
		first, second NodeID
	}{
		{1, None},    // v1
		{2, 4},       // v2
		{None, 3},    // v3
		{None, None}, // v4... see below
		{None, 5},    // v5
		{None, None}, // v6
	}
	for v, w := range want {
		if tr.First(NodeID(v)) != w.first || tr.Second(NodeID(v)) != w.second {
			t.Errorf("node %d: first=%d second=%d, want %d %d",
				v, tr.First(NodeID(v)), tr.Second(NodeID(v)), w.first, w.second)
		}
	}
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}
	for v, wantName := range []string{"v1", "v2", "v3", "v4", "v5", "v6"} {
		if got := tr.Names().Name(tr.Label(NodeID(v))); got != wantName {
			t.Errorf("node %d labeled %s, want %s", v, got, wantName)
		}
	}
}

func TestBuilderTextNodes(t *testing.T) {
	b := NewBuilder(nil)
	if err := b.Begin("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Text([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if err := b.Begin("b"); err != nil {
		t.Fatal(err)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	// a(x, y, b): binary: a.first=x, x.second=y, y.second=b.
	if tr.Len() != 4 {
		t.Fatalf("got %d nodes, want 4", tr.Len())
	}
	if !tr.Label(1).IsChar() || tr.Label(1).Char() != 'x' {
		t.Errorf("node 1 label = %v, want char 'x'", tr.Label(1))
	}
	if !tr.Label(2).IsChar() || tr.Label(2).Char() != 'y' {
		t.Errorf("node 2 label = %v, want char 'y'", tr.Label(2))
	}
	if tr.Label(3).IsChar() {
		t.Errorf("node 3 should be element <b>")
	}
	if tr.First(0) != 1 || tr.Second(1) != 2 || tr.Second(2) != 3 {
		t.Errorf("unexpected shape:\n%s", tr)
	}
	if err := tr.CheckPreorder(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(nil)
	if err := b.End(); err == nil {
		t.Error("unbalanced End not rejected")
	}

	b = NewBuilder(nil)
	_ = b.Begin("a")
	_ = b.End()
	if err := b.Begin("b"); err == nil {
		t.Error("second root not rejected")
	}

	b = NewBuilder(nil)
	_ = b.Begin("a")
	if _, err := b.Tree(); err == nil {
		t.Error("unclosed element not rejected")
	}

	b = NewBuilder(nil)
	if _, err := b.Tree(); err == nil {
		t.Error("empty document not rejected")
	}

	b = NewBuilder(nil)
	if err := b.Text([]byte("z")); err == nil {
		t.Error("text outside root not rejected")
	}
}

func TestNamesInternLookup(t *testing.T) {
	ns := NewNames()
	a := ns.MustIntern("alpha")
	b := ns.MustIntern("beta")
	if a == b {
		t.Fatal("distinct names got the same label")
	}
	if a2 := ns.MustIntern("alpha"); a2 != a {
		t.Errorf("re-intern changed label: %d vs %d", a2, a)
	}
	if got, ok := ns.Lookup("beta"); !ok || got != b {
		t.Errorf("Lookup(beta) = %d,%v", got, ok)
	}
	if _, ok := ns.Lookup("gamma"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if got, ok := ns.TagName(a); !ok || got != "alpha" {
		t.Errorf("TagName = %q,%v", got, ok)
	}
	if a != FirstNamedLabel {
		t.Errorf("first named label = %d, want %d", a, FirstNamedLabel)
	}
	if ns.Len() != 2 {
		t.Errorf("Len = %d, want 2", ns.Len())
	}
}

func TestNamesRoundTrip(t *testing.T) {
	ns := NewNames()
	names := []string{"gene", "sequence", "publication", "abstract", "page"}
	for _, n := range names {
		ns.MustIntern(n)
	}
	var sb strings.Builder
	if _, err := ns.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	ns2, err := ReadNames(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		l1, _ := ns.Lookup(n)
		l2, ok := ns2.Lookup(n)
		if !ok || l1 != l2 {
			t.Errorf("label for %q not preserved: %d vs %d (ok=%v)", n, l1, l2, ok)
		}
	}
}

func TestCharLabel(t *testing.T) {
	l := Label('G')
	if !l.IsChar() || l.Char() != 'G' {
		t.Errorf("Label('G') misbehaves: %v", l)
	}
	if Label(300).IsChar() {
		t.Error("Label(300) claims to be a char")
	}
	defer func() {
		if recover() == nil {
			t.Error("Char() on named label did not panic")
		}
	}()
	_ = Label(300).Char()
}

func TestParents(t *testing.T) {
	tr := figure1(t)
	parent, kind := tr.Parents()
	wantParent := []NodeID{None, 0, 1, 2, 1, 4}
	wantKind := []uint8{0, 1, 1, 2, 2, 2}
	for v := range wantParent {
		if parent[v] != wantParent[v] || kind[v] != wantKind[v] {
			t.Errorf("node %d: parent=%d kind=%d, want %d %d",
				v, parent[v], kind[v], wantParent[v], wantKind[v])
		}
	}
}

func TestDepths(t *testing.T) {
	tr := figure1(t)
	if d := tr.Depth(); d != 4 {
		// Binary depth: v1-v2-v3-v4 is a path of 4 nodes.
		t.Errorf("binary Depth = %d, want 4", d)
	}
	dd := tr.DocDepth()
	want := []int32{1, 2, 3, 3, 2, 2}
	for v := range want {
		if dd[v] != want[v] {
			t.Errorf("DocDepth[%d] = %d, want %d", v, dd[v], want[v])
		}
	}
}

// RandomUnranked generates a random unranked document for property tests.
func RandomUnranked(rng *rand.Rand, maxNodes int) UNode {
	tags := []string{"a", "b", "c", "d"}
	budget := 1 + rng.Intn(maxNodes)
	var gen func(depth int) UNode
	gen = func(depth int) UNode {
		budget--
		n := UNode{Tag: tags[rng.Intn(len(tags))]}
		if depth < 12 {
			for budget > 0 && rng.Intn(3) > 0 {
				if rng.Intn(4) == 0 {
					budget--
					n.Children = append(n.Children, UNode{Text: string(rune('w' + rng.Intn(4)))})
				} else {
					n.Children = append(n.Children, gen(depth+1))
				}
			}
		}
		return n
	}
	return gen(0)
}

func TestPreorderInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := BuildUnranked(RandomUnranked(rng, 60), nil)
		if err != nil {
			return false
		}
		return tr.CheckPreorder() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDocDepthBoundsBuilderStack(t *testing.T) {
	// A wide flat document: builder stack must stay at document depth (2),
	// not sibling count.
	b := NewBuilder(nil)
	_ = b.Begin("root")
	maxDepth := b.Depth()
	for i := 0; i < 1000; i++ {
		_ = b.Begin("c")
		if b.Depth() > maxDepth {
			maxDepth = b.Depth()
		}
		_ = b.End()
	}
	_ = b.End()
	if _, err := b.Tree(); err != nil {
		t.Fatal(err)
	}
	if maxDepth != 2 {
		t.Errorf("builder stack reached %d, want 2", maxDepth)
	}
}

func TestDocDepth(t *testing.T) {
	b := NewBuilder(nil)
	for _, ev := range []string{"a", "b", "c", "/", "/", "b", "/", "/"} {
		var err error
		if ev == "/" {
			err = b.End()
		} else {
			err = b.Begin(ev)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if d := slices.Max(tr.DocDepth()); d != 3 {
		t.Fatalf("document depth %d, want 3", d)
	}
}
