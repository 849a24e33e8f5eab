// Genefinder reproduces the paper's Section 1.3 motivating query from
// bio-informatics:
//
//	Select all nodes labeled "gene" that have a child labeled
//	"sequence" whose text contains a substring matching the regular
//	expression ACCGT(GA(C|G)ATT)*.
//
// Text is part of the tree — one node per character — so the regular
// expression runs over character-node sibling chains, inside the same
// MSO query that navigates the element structure. No streaming path
// language can express this; the two-pass engine answers it in two
// linear scans of the database. The result is cross-checked against
// direct string matching on the generated sequences.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"arb"
)

func main() {
	dir, err := os.MkdirTemp("", "arb-genefinder")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "genebank")

	// Build a synthetic gene bank; some genes get the motif (with a few
	// tail repetitions) spliced into their sequence.
	rng := rand.New(rand.NewSource(42))
	b := arb.NewTreeBuilder()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(b.Begin("genebank"))
	var sequences []string
	for g := 0; g < 200; g++ {
		seq := randomDNA(rng, 300)
		if rng.Intn(8) == 0 {
			motif := "ACCGT"
			for k := 1 + rng.Intn(2); k > 0; k-- {
				if rng.Intn(2) == 0 {
					motif += "GACATT"
				} else {
					motif += "GAGATT"
				}
			}
			at := rng.Intn(len(seq) - len(motif))
			seq = seq[:at] + motif + seq[at+len(motif):]
		}
		sequences = append(sequences, seq)
		must(b.Begin("gene"))
		must(b.Begin("name"))
		must(b.Text([]byte(fmt.Sprintf("G%03d", g))))
		must(b.End())
		must(b.Begin("sequence"))
		must(b.Text([]byte(seq)))
		must(b.End())
		must(b.End())
	}
	must(b.End())
	t, err := b.Tree()
	if err != nil {
		log.Fatal(err)
	}
	db, err := arb.CreateDBFromTree(base, t)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Direct string matching as the oracle. The starred tail matches
	// zero or more times, so a sequence matches iff it contains ACCGT.
	want := 0
	for _, s := range sequences {
		if strings.Contains(s, "ACCGT") {
			want++
		}
	}
	fmt.Printf("gene bank: %d nodes; %d genes contain the motif\n", db.N, want)

	// The query. Char[..] tests character labels; "Hit" walks the motif
	// along the character sibling chain, then the remaining rules climb
	// from the hit to the sequence element and from the sequence to its
	// gene.
	prog, err := arb.ParseProgram(`
		Hit :- V.Char[A].NextSibling.Char[C].NextSibling.Char[C].
		       NextSibling.Char[G].NextSibling.Char[T]
		       .(NextSibling.Char[G].NextSibling.Char[A].
		         NextSibling.(Char[C]|Char[G]).NextSibling.Char[A].
		         NextSibling.Char[T].NextSibling.Char[T])*;
		HasHit :- Hit;
		HasHit :- HasHit.invNextSibling;
		InSeq  :- HasHit.invFirstChild;
		SeqWithHit :- Label[sequence], InSeq;
		Up :- SeqWithHit;
		Up :- Up.invNextSibling;
		AtGene :- Up.invFirstChild;
		QUERY  :- Label[gene], AtGene;
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
	st := prof.Engine
	fmt.Printf("selected %d gene(s) in %d scan(s): phase 1 %v (%d transitions), phase 2 %v (%d transitions)\n",
		res.Count(q), 2*prof.Passes-prof.Disk.OneScan, st.Phase1Time, st.BUTransitions, st.Phase2Time, st.TDTransitions)
	if res.Count(q) != int64(want) {
		log.Fatalf("engine found %d genes, string matching found %d", res.Count(q), want)
	}
	fmt.Println("engine agrees with direct string matching")
}

func randomDNA(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	const acgt = "ACGT"
	for i := range b {
		b[i] = acgt[rng.Intn(4)]
	}
	return string(b)
}
