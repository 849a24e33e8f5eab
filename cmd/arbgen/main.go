// Command arbgen generates the paper's benchmark databases (Section 6.1):
// Treebank-like parse trees, Swissprot-like protein records, and the ACGT
// random DNA sequence in its flat and infix tree versions.
//
// Usage:
//
//	arbgen -dataset treebank|swissprot|acgt-flat|acgt-infix -out <base> [-scale f] [-seed n]
//
// Scale 1.0 reproduces the paper's dataset sizes (Figure 5); the default
// 1/32 produces laptop-friendly databases with the same structure.
package main

import (
	"flag"
	"fmt"
	"os"

	"arb/internal/storage"
	"arb/internal/workload"
)

// defaultScale is the fraction of the paper's dataset sizes used when no
// -scale is given: small enough for a laptop, large enough that scan
// costs dominate. Scale 1.0 reproduces the paper's sizes (2^25-1
// sequence symbols, ~32M-node Treebank, ~307M-node Swissprot).
const defaultScale = 1.0 / 32

func main() {
	dataset := flag.String("dataset", "", "treebank, swissprot, acgt-flat, or acgt-infix")
	out := flag.String("out", "", "output database base path")
	scale := flag.Float64("scale", defaultScale, "fraction of the paper's dataset size")
	seed := flag.Int64("seed", 0, "override the generator seed (0 = dataset default)")
	flag.Parse()
	if *dataset == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dataset, *out, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "arbgen:", err)
		os.Exit(1)
	}
}

func run(dataset, out string, scale float64, seed int64) error {
	var db *storage.DB
	var stats *storage.CreateStats
	var err error
	switch dataset {
	case "treebank":
		cfg := workload.DefaultTreebank(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		db, stats, err = workload.CreateTreebankDB(out, cfg)
	case "swissprot":
		cfg := workload.DefaultSwissprot(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		db, stats, err = workload.CreateSwissprotDB(out, cfg)
	case "acgt-flat", "acgt-infix":
		if seed == 0 {
			seed = 4
		}
		seq := workload.Sequence(seed, workload.ScaledSequenceLength(scale))
		if dataset == "acgt-flat" {
			db, err = workload.CreateFlatDB(out, seq)
		} else {
			db, err = workload.CreateInfixDB(out, seq)
		}
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	if err != nil {
		return err
	}
	defer db.Close()
	if stats != nil {
		fmt.Printf("%s: %d element nodes, %d character nodes, %d tags, %.2fs\n",
			out, stats.ElemNodes, stats.CharNodes, stats.Tags, stats.Duration.Seconds())
	} else {
		fmt.Printf("%s: %d nodes\n", out, db.N)
	}
	return nil
}
