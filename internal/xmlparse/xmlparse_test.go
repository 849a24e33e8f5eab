package xmlparse

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/storage"
	"arb/internal/tree"
)

func mustParseTree(t *testing.T, src string) *tree.Tree {
	t.Helper()
	tr, err := ParseTree(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseTree(%q): %v", src, err)
	}
	return tr
}

func TestParsePaperExample(t *testing.T) {
	// Example 4.5's three-node document.
	tr := mustParseTree(t, `<a><a><a/></a></a>`)
	if tr.Len() != 3 {
		t.Fatalf("got %d nodes, want 3", tr.Len())
	}
	a, _ := tr.Names().Lookup("a")
	for v := 0; v < 3; v++ {
		if tr.Label(tree.NodeID(v)) != a {
			t.Fatalf("node %d label %v, want a", v, tr.Label(tree.NodeID(v)))
		}
	}
	// v0 -first-> v1 -first-> v2; no second children.
	if tr.First(0) != 1 || tr.First(1) != 2 || tr.HasSecond(0) || tr.HasSecond(1) || tr.HasFirst(2) {
		t.Fatalf("wrong shape: first=%v/%v", tr.First(0), tr.First(1))
	}
}

func TestParseCharactersAsNodes(t *testing.T) {
	tr := mustParseTree(t, `<g><seq>ACG</seq></g>`)
	// g, seq, 'A', 'C', 'G'
	if tr.Len() != 5 {
		t.Fatalf("got %d nodes, want 5", tr.Len())
	}
	seq := tr.First(tr.First(0))
	var got []byte
	for v := seq; v != tree.None; v = tr.Second(v) {
		l := tr.Label(v)
		if !l.IsChar() {
			t.Fatalf("node %d is not a character", v)
		}
		got = append(got, l.Char())
	}
	if string(got) != "ACG" {
		t.Fatalf("text %q, want ACG", got)
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	tr := mustParseTree(t, `<a>&lt;x&gt;<![CDATA[&]]></a>`)
	var got []byte
	for v := tr.First(0); v != tree.None; v = tr.Second(v) {
		got = append(got, tr.Label(v).Char())
	}
	if string(got) != "<x>&" {
		t.Fatalf("text %q, want <x>&", got)
	}
}

func TestParseSkipsNonTreeNodes(t *testing.T) {
	src := `<?xml version="1.0"?><!-- c --><r><!-- inner --><?pi data?><a/></r>`
	tr := mustParseTree(t, src)
	if tr.Len() != 2 {
		t.Fatalf("got %d nodes, want 2 (r, a)", tr.Len())
	}
}

func TestParseDropsAttributes(t *testing.T) {
	tr := mustParseTree(t, `<r id="7"><a x="y"/></r>`)
	if tr.Len() != 2 {
		t.Fatalf("got %d nodes, want 2 (r, a)", tr.Len())
	}
}

func TestParseMalformed(t *testing.T) {
	for _, src := range []string{
		`<a><b></a></b>`,
		`<a>`,
		`text only`,
		``,
	} {
		if _, err := ParseTree(strings.NewReader(src)); err == nil {
			t.Errorf("ParseTree(%q) succeeded, want error", src)
		}
	}
}

func TestParseDeepDocument(t *testing.T) {
	var b strings.Builder
	const depth = 2000
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	tr := mustParseTree(t, b.String())
	if tr.Len() != depth {
		t.Fatalf("got %d nodes, want %d", tr.Len(), depth)
	}
}

func TestCreateDBRoundTrip(t *testing.T) {
	src := `<doc><p>hi</p><p>yo</p></doc>`
	base := filepath.Join(t.TempDir(), "db")
	db, stats, err := CreateDB(base, strings.NewReader(src), storage.CreateOpts{})
	if err != nil {
		t.Fatalf("CreateDB: %v", err)
	}
	defer db.Close()
	if stats.ElemNodes != 3 || stats.CharNodes != 4 {
		t.Fatalf("stats: %d elements, %d chars; want 3, 4", stats.ElemNodes, stats.CharNodes)
	}
	got, err := db.ReadTree(context.Background())
	if err != nil {
		t.Fatalf("ReadTree: %v", err)
	}
	want := mustParseTree(t, src)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, want)
	}
}
