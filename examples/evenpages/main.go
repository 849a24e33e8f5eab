// Evenpages runs the paper's Section 1.3 counting query — beyond any
// XPath fragment, but plainly expressible in MSO/TMNF:
//
//	Select all nodes labeled "publication" whose subtrees contain an
//	even number of nodes labeled "page".
//
// The program is the modulo-2 counting idiom of Example 2.2: leaves are
// classified even/odd, sibling lists are summed right-to-left, and
// parities propagate up — a bottom-up computation no one-pass stream
// processor over the document order can do.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"arb"
)

func main() {
	dir, err := os.MkdirTemp("", "arb-evenpages")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A bibliography of publications with page elements, some nested
	// inside sections.
	rng := rand.New(rand.NewSource(7))
	b := arb.NewTreeBuilder()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	var wantEven int
	must(b.Begin("bibliography"))
	for i := 0; i < 500; i++ {
		must(b.Begin("publication"))
		pages := 0
		sections := 1 + rng.Intn(3)
		for s := 0; s < sections; s++ {
			must(b.Begin("section"))
			n := rng.Intn(5)
			pages += n
			for p := 0; p < n; p++ {
				must(b.Begin("page"))
				must(b.End())
			}
			must(b.End())
		}
		if pages%2 == 0 {
			wantEven++
		}
		must(b.End())
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

	// Example 2.2, adapted: parity of "page" nodes per subtree. A node's
	// own contribution is 1 if it is labeled page. SFREven/SFROdd sum a
	// node's subtree with its right siblings' subtrees; invFirstChild
	// pushes the total to the parent.
	prog, err := arb.ParseProgram(`
		SelfOdd   :- Label[page];
		SelfEven  :- -Label[page];

		LeafEven :- Leaf, SelfEven;
		LeafOdd  :- Leaf, SelfOdd;

		Even :- LeafEven;
		Odd  :- LeafOdd;
		Even :- SFREvenKids, SelfEven;
		Odd  :- SFREvenKids, SelfOdd;
		Odd  :- SFROddKids, SelfEven;
		Even :- SFROddKids, SelfOdd;

		SFREven :- Even, LastSibling;
		SFROdd  :- Odd, LastSibling;
		FSEven :- SFREven.invNextSibling;
		FSOdd  :- SFROdd.invNextSibling;
		SFREven :- FSEven, Even;
		SFROdd  :- FSEven, Odd;
		SFROdd  :- FSOdd, Even;
		SFREven :- FSOdd, Odd;

		SFREvenKids :- SFREven.invFirstChild;
		SFROddKids  :- SFROdd.invFirstChild;

		QUERY :- Label[publication], Even;
	`)
	if err != nil {
		log.Fatal(err)
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
	q := pq.Queries()[0]
	fmt.Printf("%d of 500 publications have an even number of pages (expected %d)\n",
		res.Count(q), wantEven)
	if res.Count(q) != int64(wantEven) {
		log.Fatalf("engine disagrees with the direct count")
	}
	st := prof.Engine
	fmt.Printf("%d scan(s) over %d nodes; %d + %d lazy transitions\n",
		2*prof.Passes-prof.Disk.OneScan, db.N, st.BUTransitions, st.TDTransitions)
}
