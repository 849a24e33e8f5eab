package xpath

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tree"
	"arb/internal/xmlparse"
)

func parseDoc(t *testing.T, src string) *tree.Tree {
	t.Helper()
	tr, err := xmlparse.ParseTree(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// evalTree runs the compiled query over an in-memory tree with one worker
// — Prepare and ExecDisk over the tree's record image — and returns the
// main pass's selected nodes as a truth vector over preorder ids.
func evalTree(q *Query, tr *tree.Tree) ([]bool, error) {
	db, err := storage.OpenTree(tr, nil)
	if err != nil {
		return nil, err
	}
	res, err := execDisk(q, db, 1)
	if err != nil {
		return nil, err
	}
	out := make([]bool, tr.Len())
	res.Walk(q.Main.Queries()[0], func(v tree.NodeID) bool {
		out[v] = true
		return true
	})
	return out, nil
}

// execDisk prepares the query against db's names and executes every pass
// with the given workers (0 = all CPUs).
func execDisk(q *Query, db *storage.DB, workers int) (*core.Result, error) {
	p, err := q.Prepare(db.Names)
	if err != nil {
		return nil, err
	}
	res, _, err := p.ExecDisk(context.Background(), db, ExecOpts{Workers: ResolveWorkers(workers)})
	return res, err
}

func selected(sel []bool) []int {
	var out []int
	for v, ok := range sel {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

func TestParseRoundTrip(t *testing.T) {
	cases := map[string]string{
		"/a/b":                         "/child::a/child::b",
		"a//b":                         "/child::a/descendant-or-self::node()/child::b",
		"//a":                          "/descendant-or-self::node()/child::a",
		"/a/*":                         "/child::a/child::*",
		"a/text()":                     "/child::a/child::text()",
		"a[b]":                         "/child::a[child::b]",
		"a[b and not(c)]":              "/child::a[(child::b and not(child::c))]",
		"a[b or c]/d":                  "/child::a[(child::b or child::c)]/child::d",
		"a/..":                         "/child::a/parent::node()",
		"a/.":                          "/child::a/self::node()",
		"ancestor::a":                  "/ancestor::a",
		"following-sibling::*":         "/following-sibling::*",
		"a[descendant::b[c]]":          "/child::a[descendant::b[child::c]]",
		"a[preceding::b]/following::c": "/child::a[preceding::b]/following::c",
	}
	for src, want := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

// TestParseCarriageReturn locks down \r as whitespace: CRLF-embedded
// queries (multi-line workload entries, HTTP bodies from Windows
// clients) must parse instead of failing with "trailing input".
func TestParseCarriageReturn(t *testing.T) {
	cases := map[string]string{
		"//a\r\n":                "/descendant-or-self::node()/child::a",
		"a\r\n[b]":               "/child::a[child::b]",
		"\r\na[b\r\nand\r\nc]\r": "/child::a[(child::b and child::c)]",
		"a[ not(\rb) ]":          "/child::a[not(child::b)]",
	}
	for src, want := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
	// A bare \r between identifier bytes is still a token break, not glue.
	if _, err := Parse("a\rb"); err == nil {
		t.Error(`Parse("a\rb") succeeded, want error`)
	}
}

// TestNormalize checks that syntactic variants of one query share a
// normalized form (the plan-cache key) and that normalization is a
// fixed point.
func TestNormalize(t *testing.T) {
	variants := []string{
		"//a[b and not(c)]",
		"//a[ b\tand not( c ) ]",
		"//a[b\r\nand not(c)]",
		"/descendant-or-self::node()/child::a[child::b and not(child::c)]",
	}
	want, err := Normalize(variants[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		got, err := Normalize(v)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", v, err)
		}
		if got != want {
			t.Errorf("Normalize(%q) = %s, want %s", v, got, want)
		}
	}
	again, err := Normalize(want)
	if err != nil || again != want {
		t.Errorf("Normalize is not a fixed point: %q -> %q, %v", want, again, err)
	}
	if _, err := Normalize("a["); err == nil {
		t.Error("Normalize accepted a malformed query")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "a[", "a]", "a[b", "a[not b]", "bogus::a", "a b", "a[()]",
		"a/", "//", "a[foo()]",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestInterpBasics(t *testing.T) {
	// ids: doc=0 a=1 b=2 'x'=3 c=4 a=5 b=6
	doc := `<doc><a><b>x</b><c/></a><a><b/></a></doc>`
	tr := parseDoc(t, doc)
	in := NewInterp(tr)
	cases := []struct {
		q    string
		want []int
	}{
		{"/doc", []int{0}},
		{"/doc/a", []int{1, 5}},
		{"//b", []int{2, 6}},
		{"//text()", []int{3}},
		{"//*", []int{0, 1, 2, 4, 5, 6}},
		{"//b/..", []int{1, 5}},
		{"//a[c]", []int{1}},
		{"//a[not(c)]", []int{5}},
		{"//a[b and c]", []int{1}},
		{"//a[b or c]", []int{1, 5}},
		{"//c/preceding-sibling::b", []int{2}},
		{"//b/following-sibling::c", []int{4}},
		{"//c/following::b", []int{6}},
		{"//b[text()]", []int{2}},
		{"//b/ancestor::a", []int{1, 5}},
		{"//a[descendant::text()]", []int{1}},
		{"/doc/a[following-sibling::a]", []int{1}},
	}
	for _, c := range cases {
		p, err := Parse(c.q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.q, err)
		}
		got := selected(in.Eval(p))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: got %v, want %v", c.q, got, c.want)
		}
	}
}

// TestTranslateMatchesInterp is the main differential: the TMNF
// translation evaluated by the two-phase engine must agree with the
// direct interpreter, on handwritten queries covering every axis and
// condition form.
func TestTranslateMatchesInterp(t *testing.T) {
	docs := []string{
		`<doc><a><b>x</b><c/></a><a><b/></a></doc>`,
		`<r><a><a><b/></a></a><b><a/></b>t</r>`,
		`<r><x/><y><x><y/></x></y><z/></r>`,
	}
	queries := []string{
		"/doc", "//a", "//a/b", "//b/..", "//a[c]", "//a[not(c)]",
		"//a[b and c]", "//a[b or c]", "//a[not(b) and not(c)]",
		"//*[text()]", "//a/descendant::b", "//b/ancestor::a",
		"//b/ancestor-or-self::*", "//a/following-sibling::*",
		"//a/preceding-sibling::*", "//a/following::*", "//a/preceding::*",
		"//a[descendant::b]", "//a[ancestor::a]", "//a[not(ancestor::a)]",
		"//a[following::b]", "//x[/r/z]", "//x[not(/r/q)]",
		"//a[not(b[not(c)])]", "//*[self::a or self::b]",
		"/descendant::a[preceding::x]",
	}
	for _, doc := range docs {
		tr := parseDoc(t, doc)
		in := NewInterp(tr)
		for _, qs := range queries {
			p, err := Parse(qs)
			if err != nil {
				t.Fatalf("Parse(%q): %v", qs, err)
			}
			want := selected(in.Eval(p))
			q, err := Translate(p)
			if err != nil {
				t.Fatalf("Translate(%q): %v", qs, err)
			}
			sel, err := evalTree(q, tr)
			if err != nil {
				t.Fatalf("Eval(%q): %v", qs, err)
			}
			if got := selected(sel); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("doc %s\nquery %s: engine %v, interpreter %v", doc, qs, got, want)
			}
		}
	}
}

func TestNestedNegationPasses(t *testing.T) {
	q, err := Compile("//a[not(b[not(c)])]")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Passes) != 2 {
		t.Fatalf("got %d passes, want 2", len(q.Passes))
	}
	// The inner not(c) pass must come first.
	if !strings.Contains(q.Passes[1].String(), "Aux[0]") {
		t.Fatalf("outer pass does not reference Aux[0]:\n%s", q.Passes[1])
	}
}

func TestTooManyNegations(t *testing.T) {
	var b strings.Builder
	b.WriteString("//a")
	for i := 0; i < 17; i++ {
		b.WriteString("[not(b)]")
	}
	if _, err := Compile(b.String()); err == nil {
		t.Fatal("Compile accepted 17 not(..) conditions")
	}
}

// TestPositiveFragmentOnDisk runs a single-program (negation-free) XPath
// query through the secondary-storage driver and compares with the
// interpreter.
func TestPositiveFragmentOnDisk(t *testing.T) {
	tr := parseDoc(t, `<doc><a><b>x</b><c/></a><a><b/></a></doc>`)
	base := filepath.Join(t.TempDir(), "db")
	db, err := storage.CreateFromTree(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, qs := range []string{"//a[c]", "//b/ancestor::a", "//a/following::*", "/doc/a/b"} {
		q, err := Compile(qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Passes) != 0 {
			t.Fatalf("%s: unexpected passes", qs)
		}
		c, err := core.Compile(q.Main)
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(c, db.Names)
		res, _, err := e.RunDiskContext(context.Background(), db, core.DiskOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := selected(NewInterp(tr).Eval(MustParse(qs)))
		var got []int
		res.Walk(q.Main.Queries()[0], func(v tree.NodeID) bool {
			got = append(got, int(v))
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: disk %v, interpreter %v", qs, got, want)
		}
	}
}

// TestXPathParserRobustness throws random byte soup at the parser.
func TestXPathParserRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	chars := []byte("abc:/[]()*@.|! ndorst")
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(50)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", b, r)
				}
			}()
			if p, err := Parse(string(b)); err == nil {
				// Whatever parses must also translate and print.
				_ = p.String()
				if _, err := Translate(p); err != nil && !strings.Contains(err.Error(), "not(") {
					t.Fatalf("Translate(%q): %v", b, err)
				}
			}
		}()
	}
}
