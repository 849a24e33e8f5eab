package arb_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"arb"
)

// Example builds a database from XML, evaluates a caterpillar TMNF query
// over it in two linear scans, and prints the match count.
func Example() {
	dir, err := os.MkdirTemp("", "arb-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	doc := `<genes><gene><seq>ACCGT</seq></gene><gene><seq>TTTT</seq></gene></genes>`
	db, _, err := arb.CreateDB(filepath.Join(dir, "genes"), strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	sess := arb.NewDBSession(db)
	defer db.Close()

	// Genes whose sequence text contains "CC": the walk descends from a
	// gene to its seq child, into the text, and along the character
	// siblings to a C followed by a C.
	prog, err := arb.ParseProgram(`
		Hit   :- V.Char[C].NextSibling.Char[C];
		HasC  :- Hit;
		HasC  :- HasC.invNextSibling;
		InSeq :- HasC.invFirstChild;
		Seq   :- Label[seq], InSeq;
		Up    :- Seq;
		Up    :- Up.invNextSibling;
		AtG   :- Up.invFirstChild;
		QUERY :- Label[gene], AtG;
	`)
	if err != nil {
		log.Fatal(err)
	}
	pq, err := sess.Prepare(prog)
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := pq.Exec(context.Background(), arb.ExecOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matching genes:", res.Count(pq.Queries()[0]))
	// Output: matching genes: 1
}

// ExampleSession shows the session lifecycle: open one source, prepare
// queries once, execute them repeatedly — sequentially, in parallel, and
// with a deadline — always through the same Exec call.
func ExampleSession() {
	dir, err := os.MkdirTemp("", "arb-example-session")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	doc := `<lib><book><author>X</author><author>Y</author></book><book><author>Z</author></book><book/></lib>`
	db, _, err := arb.CreateDB(filepath.Join(dir, "lib"), strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	db.Close()

	// A session owns the open database and everything its queries
	// share; prepared queries keep their automata warm across Execs.
	sess, err := arb.OpenSession(filepath.Join(dir, "lib"))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// not(..) needs an auxiliary pass; Exec chains the passes through
	// the aux pass's selection, entirely in secondary storage.
	xq, err := arb.ParseXPath(`//book[not(author)]`)
	if err != nil {
		log.Fatal(err)
	}
	pq, err := sess.PrepareXPath(xq)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	res, _, err := pq.Exec(ctx, arb.ExecOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("books without authors:", res.Count(pq.Queries()[0]))

	// The same prepared query, now with a deadline and parallel
	// workers: the result is identical, and a cancelled context would
	// abort the scans promptly with ctx.Err().
	ctx2, cancel := context.WithTimeout(ctx, 30e9)
	defer cancel()
	res, prof, err := pq.Exec(ctx2, arb.ExecOpts{Workers: -1, Stats: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("again:", res.Count(pq.Queries()[0]), "passes:", prof.Passes)
	// Output:
	// books without authors: 1
	// again: 1 passes: 2
}

// ExampleSession_PrepareBatch answers a mixed workload — a TMNF program,
// a positive XPath query and a multi-pass not(..) query — in shared
// scans: the whole batch costs two scan pairs instead of one per pass
// per query, and every result is identical to a stand-alone execution.
func ExampleSession_PrepareBatch() {
	dir, err := os.MkdirTemp("", "arb-example-batch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	doc := `<lib><book><author>X</author><author>Y</author></book><book><author>Z</author></book><book/></lib>`
	db, _, err := arb.CreateDB(filepath.Join(dir, "lib"), strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	defer sess.Close()

	books, err := arb.ParseProgram(`QUERY :- Label[book];`)
	if err != nil {
		log.Fatal(err)
	}
	authors, err := arb.ParseXPath(`//book/author`)
	if err != nil {
		log.Fatal(err)
	}
	empty, err := arb.ParseXPath(`//book[not(author)]`)
	if err != nil {
		log.Fatal(err)
	}
	pb, err := sess.PrepareBatch(books, authors, empty)
	if err != nil {
		log.Fatal(err)
	}
	counts, err := pb.Count(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("books:", counts[0], "authors:", counts[1], "empty:", counts[2], "rounds:", pb.Rounds())
	// Output: books: 3 authors: 3 empty: 1 rounds: 2
}

// ExampleParseXPath evaluates a Core XPath query with a negated
// condition through multi-pass evaluation over an in-memory tree.
func ExampleParseXPath() {
	doc := `<lib><book><author>X</author></book><book/></lib>`
	t, err := arb.ParseXML(strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	q, err := arb.ParseXPath(`//book[not(author)]`)
	if err != nil {
		log.Fatal(err)
	}
	pq, err := arb.NewSession(t).PrepareXPath(q)
	if err != nil {
		log.Fatal(err)
	}
	n, err := pq.Count(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("books without authors:", n)
	// Output: books without authors: 1
}
