// Batchserve: one session answering a mixed query workload in shared
// scans. A server fielding heavy query traffic pays the two linear scans
// of the paper's cost model per query — unless it batches: PrepareBatch
// groups any mix of TMNF programs and Core XPath queries (including
// multi-pass not(..) queries) and Exec evaluates all of them during a
// single pair of scans per scheduled round, with results bit-identical
// to running each query alone.
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

const doc = `<inventory>
  <product sku="100"><name>bolt</name><stock>250</stock><flag>low</flag></product>
  <product sku="101"><name>nut</name><stock>900</stock></product>
  <product sku="102"><name>washer</name><flag>low</flag><stock>12</stock></product>
  <product sku="103"><name>screw</name><stock>47</stock></product>
  <order><item>100</item><item>103</item></order>
  <order><item>101</item></order>
</inventory>`

func main() {
	dir, err := os.MkdirTemp("", "arb-batchserve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "inventory")
	db, _, err := arb.CreateDB(base, strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sess := arb.NewDBSession(db)
	defer sess.Close()

	// The workload: four clients' queries, arriving together. Two TMNF
	// programs, one positive XPath query, one multi-pass not(..) query.
	products, err := arb.ParseProgram(`QUERY :- Label[product];`)
	if err != nil {
		log.Fatal(err)
	}
	leaves, err := arb.ParseProgram(`QUERY :- V.Label[order].FirstChild.NextSibling*.Label[item];`)
	if err != nil {
		log.Fatal(err)
	}
	named, err := arb.ParseXPath(`//product/name`)
	if err != nil {
		log.Fatal(err)
	}
	unflagged, err := arb.ParseXPath(`//product[not(flag)]`)
	if err != nil {
		log.Fatal(err)
	}

	// One prepared batch serves the whole workload; its automata persist,
	// so the next burst of the same queries runs warm.
	pb, err := sess.PrepareBatch(products, leaves, named, unflagged)
	if err != nil {
		log.Fatal(err)
	}
	labels := []string{"products", "order items", "product names", "unflagged products"}

	res, prof, err := pb.Exec(context.Background(), arb.ExecOpts{Stats: true})
	if err != nil {
		log.Fatal(err)
	}
	for i := range res {
		fmt.Printf("%-20s %d nodes\n", labels[i]+":", res[i].Count(pb.Queries(i)[0]))
	}
	fmt.Printf("\n%d queries in %d shared round(s), %d of them one scan; %d data bytes scanned per query\n",
		pb.Len(), prof.Passes, prof.Disk.OneScan,
		(prof.Disk.Phase1.Bytes+prof.Disk.Phase2.Bytes)/int64(pb.Len()))
}
