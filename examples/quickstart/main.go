// Quickstart: build a database from XML, query it with TMNF and with
// Core XPath, and emit the document with matches marked up.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"arb"
)

const doc = `<library>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author>Stevens</author>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Buneman</author>
    <author>Suciu</author>
  </book>
  <article>
    <title>Query Automata</title>
    <author>Neven</author>
    <author>Schwentick</author>
  </article>
</library>`

func main() {
	dir, err := os.MkdirTemp("", "arb-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "library")

	// 1. Create the database: one pass over the XML writes the records
	// of Section 5's storage model (library.arb), then the tag names
	// (library.lab) and the subtree index (library.idx).
	db, stats, err := arb.CreateDB(base, strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("database: %d element nodes, %d character nodes, %d tags\n",
		stats.ElemNodes, stats.CharNodes, stats.Tags)

	// 2. Open a session over the database: it owns what every query on
	// it shares (the label table and, for parallel runs, the subtree
	// index); prepared queries keep their compiled automata warm across
	// executions.
	sess := arb.NewDBSession(db)
	defer sess.Close()
	ctx := context.Background()

	// A TMNF query in the Arb surface syntax: titles of publications
	// with more than one author. Caterpillar rules mark the node a walk
	// ends at, so the walk finds two distinct author siblings and then
	// returns left to the title.
	prog, err := arb.ParseProgram(`
		QUERY :- V.Label[author].NextSibling.NextSibling*.Label[author].
		         invNextSibling.invNextSibling*.Label[title];
	`)
	if err != nil {
		log.Fatal(err)
	}
	pq, err := sess.Prepare(prog)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate on disk: one backward and one forward linear scan.
	res, _, err := pq.Exec(ctx, arb.ExecOpts{})
	if err != nil {
		log.Fatal(err)
	}
	q := pq.Queries()[0]
	fmt.Printf("TMNF: %d title(s) of multi-author publications\n", res.Count(q))

	// 3. The same query in Core XPath, through the same Exec call.
	xq, err := arb.ParseXPath(`//title[following-sibling::author/following-sibling::author]`)
	if err != nil {
		log.Fatal(err)
	}
	xpq, err := sess.PrepareXPath(xq)
	if err != nil {
		log.Fatal(err)
	}
	xres, _, err := xpq.Exec(ctx, arb.ExecOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("XPath: %d title(s)\n", xres.Count(xpq.Queries()[0]))

	// 4. Emit the document with matches marked up (the system's default
	// output mode).
	fmt.Println("\nmarked document:")
	if err := sess.EmitXML(ctx, os.Stdout, func(v int64) bool {
		return res.Holds(q, arb.NodeID(v))
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}
