package xpath

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Prepared is a multi-pass query bound to a label-name table, with one
// persistent engine per pass: the lazily computed automata (states and
// transition tables) survive across executions, so repeated queries over
// a persistent database pay the Horn-solving cost once. A plain TMNF
// program is the degenerate single-pass case (PrepareProgram). Prepared
// is the execution layer behind the arb package's PreparedQuery.
// Executions of one Prepared may overlap — each run keeps its own
// per-run state (aux labelings, temp files, results) and reaches the
// shared engines through their internal locks.
type Prepared struct {
	aux  []*core.Engine // one engine per auxiliary pass, in pass order
	main *core.Engine
	prog *tmnf.Program // the main pass's program
}

// PrepareProgram compiles a TMNF program into a single-pass Prepared
// bound to the given name table.
func PrepareProgram(prog *tmnf.Program, names *tree.Names) (*Prepared, error) {
	if len(prog.Queries()) == 0 {
		return nil, fmt.Errorf("program defines no query predicate (name one QUERY)")
	}
	c, err := core.Compile(prog)
	if err != nil {
		return nil, err
	}
	return &Prepared{main: core.NewEngine(c, names), prog: prog}, nil
}

// Prepare binds the compiled query to a name table, compiling every pass
// to its own engine.
func (q *Query) Prepare(names *tree.Names) (*Prepared, error) {
	p := &Prepared{prog: q.Main}
	for k, pass := range q.Passes {
		c, err := core.Compile(pass)
		if err != nil {
			return nil, fmt.Errorf("xpath: pass %d: %w", k, err)
		}
		p.aux = append(p.aux, core.NewEngine(c, names))
	}
	c, err := core.Compile(q.Main)
	if err != nil {
		return nil, err
	}
	p.main = core.NewEngine(c, names)
	return p, nil
}

// Queries returns the query predicates of the main pass.
func (p *Prepared) Queries() []tmnf.Pred { return p.prog.Queries() }

// Program returns the main pass's program (for predicate naming).
func (p *Prepared) Program() *tmnf.Program { return p.prog }

// Passes returns the number of automata passes an execution runs
// (auxiliary passes plus the main pass).
func (p *Prepared) Passes() int { return len(p.aux) + 1 }

// Summary returns the label-determined selection summary of the query's
// main engine (core.SelSummary), or nil when the query has no such
// summary: multi-pass queries never do — their main pass reads aux bits
// the summary cannot see — and single-pass queries only when the
// selection provably depends on nothing but each node's label and
// root-ness. Non-nil summaries feed the result cache's subsumption check.
func (p *Prepared) Summary() *core.SelSummary {
	if len(p.aux) > 0 {
		return nil
	}
	return p.main.SelectionSummary()
}

// ResolveWorkers maps a worker request to a concrete count: n >= 1 is
// taken as-is, anything else (0, negative) means all CPUs.
func ResolveWorkers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ExecOpts configures one execution of a Prepared query. Workers must be
// resolved to a concrete count (>= 1) by the caller.
type ExecOpts struct {
	// Workers is the number of parallel evaluation workers; 1 runs the
	// one driver with an empty frontier.
	Workers int
	// MarkTo, when non-nil, streams the document back out as XML with
	// the nodes selected by query predicate MarkQuery marked up, during
	// the main pass's second scan itself (Section 6.3); marking makes
	// that pass run with an empty frontier, whatever Workers says.
	MarkTo    io.Writer
	MarkQuery int
	// NoPrune disables selectivity-aware scan pruning on every pass.
	NoPrune bool
}

// ExecStats is the merged cost profile of one execution across all its
// passes. Disk.OneScan counts the passes that took one scan: a backward
// one omitted phase 2 (only ever a single-pass execution's one pass: aux
// passes write sidecars, which takes phase 2), a forward one omitted phase
// 1 (any pass that reads no sidecar); the phase they omitted reads no
// bytes, and neither writes state bytes.
type ExecStats struct {
	Engine core.Stats     // automata work (lazy transitions, phase times)
	Disk   core.DiskStats // scan profile (of the record image, for a tree)
	Passes int            // passes executed (aux + main)
}

// statsDelta runs f with a fresh per-run stats sink and folds exactly
// the work f's drivers attributed to the sink into es. The drivers
// mirror their node counts and phase times into the sink and reach the
// shared engines through ShareTo views, which credit each lazily
// computed transition to the run whose cache miss computed it — so the
// profile is deterministic even when executions overlap on one
// Prepared's engines (snapshot deltas of the engines' cumulative Stats
// would attribute concurrent cache work to whichever run observed it).
func statsDelta(es *ExecStats, f func(rs *core.RunStats) error) error {
	rs := &core.RunStats{}
	err := f(rs)
	es.Engine.Add(rs.Snapshot())
	return err
}

// ExecDisk evaluates the prepared query over a .arb database — in
// secondary storage, or over a tree's record image in RAM — as a batch of
// one (Batch.ExecDisk): each auxiliary pass is one round of two linear
// scans whose phase 2 streams an updated aux-mask sidecar, which the next
// round reads alongside the database; the main pass returns the unified
// result. Cancelling ctx aborts the scan in progress with ctx.Err() and
// removes every temporary sidecar the execution created.
func (p *Prepared) ExecDisk(ctx context.Context, db *storage.DB, opts ExecOpts) (*core.Result, ExecStats, error) {
	res, es, err := NewBatch([]*Prepared{p}).ExecDisk(ctx, db, opts)
	if err != nil {
		return nil, es, err
	}
	return res[0], es, nil
}
