// Command benchmark is the repository's one benchmark: a seeded corpus,
// four workloads that each load different layers, end-to-end metrics with
// regression bounds (BENCHMARK.json) and a traced pass with per-layer
// metrics. README.md in this directory says why each part is there.
//
//	go run ./benchmark --workload scan_full --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -seed 1 -out run.jsonl        # all workloads, untraced then traced
//	go run ./benchmark -compare before.jsonl after.jsonl
//	go run ./benchmark -smoke                        # tiny corpus, a few ops, every metric
//
// One run is one pass over one workload; its last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed is recorded in BENCHMARK.json's workload notes and README.
const defaultSeed = 20030909

func main() {
	var cfg config
	var trace string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: scan_full, scan_pruned_z, serve_zipf, patch_mix or all")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "the only input that shapes the data and the query, patch and request sequences")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long one pass measures")
	flag.StringVar(&trace, "trace", "both", "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); both")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny corpus and a few operations per workload: checks the harness, not the system")
	flag.StringVar(&cfg.out, "out", "", "append one JSON record per pass to this file; spans of traced passes go next to it")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare before.jsonl after.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}

	cfg.spec = defaultSpec
	if cfg.smoke {
		cfg.spec, cfg.seconds = smokeSpec, 0.2
	}
	var passes []bool
	switch trace {
	case "0", "false":
		passes = []bool{false}
	case "1", "true":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fatal(2, "-trace %q: want 0, 1 or both", trace)
	}
	todo := workloads
	if cfg.workload != "all" {
		w, ok := findWorkload(cfg.workload)
		if !ok {
			fatal(2, "unknown workload %q", cfg.workload)
		}
		todo = []workloadDef{w}
	}

	// Everything the benchmark writes lives under .bench_build in the
	// directory it is run from (the checkout), and is removed again.
	cfg.root = filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	env := environment(cfg)
	fmt.Printf("# seed %d, %g s per pass\n%s\n", cfg.seed, cfg.seconds, env.describe())

	ok := true
	for _, traced := range passes {
		for _, w := range todo {
			cfg.trace = traced
			res, err := runWorkload(cfg, w)
			if err != nil {
				fatal(1, "%v", err)
			}
			printResult(os.Stdout, res)
			if cfg.out != "" {
				if err := appendRecord(cfg.out, env, cfg, res); err != nil {
					fatal(1, "%v", err)
				}
			}
			if err := printContractLine(os.Stdout, res); err != nil {
				fatal(1, "%v", err)
			}
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
