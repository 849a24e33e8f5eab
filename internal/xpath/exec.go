package xpath

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
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
	// KeepStates retains per-node evaluation state from the main pass:
	// runs over a tree's record image (storage.OpenTree) record the
	// automaton states in the Result (Result.BUStateOf/TDStateOf); disk
	// runs keep the phase-1 state file under a unique per-run name
	// reported as Result.StateFile.
	KeepStates bool
	// MarkTo, when non-nil, streams the document back out as XML with
	// the nodes selected by query predicate MarkQuery marked up, during
	// the main pass's second scan itself (Section 6.3); marking makes
	// that pass run with an empty frontier, whatever Workers says.
	MarkTo    io.Writer
	MarkQuery int
	// AuxDir is where disk executions place the temporary aux-mask
	// sidecar files chaining the passes; empty means next to the
	// database. Each execution uses a private subdirectory, removed when
	// the execution finishes, fails, or is cancelled. Executions over a
	// tree's record image keep their sidecars in RAM and ignore it.
	AuxDir string
	// NoPrune disables selectivity-aware scan pruning on every pass.
	NoPrune bool
}

// ExecStats is the merged cost profile of one execution across all its
// passes. Disk.OneScan counts the passes that omitted phase 2 (only ever
// a single-pass execution's one pass: aux passes write and read sidecars,
// which takes both scans); their phase-2 time, bytes and state bytes are
// zero.
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
// secondary storage, or over a tree's record image in RAM: each auxiliary
// pass runs as two linear scans whose phase 2 streams an updated
// 2-byte-per-node aux-mask sidecar, which the next pass reads alongside the
// database; the main pass returns the unified result. Cancelling ctx
// aborts the scan in progress with ctx.Err() and removes every temporary
// sidecar the execution created.
func (p *Prepared) ExecDisk(ctx context.Context, db *storage.DB, opts ExecOpts) (*core.Result, ExecStats, error) {
	es := ExecStats{Passes: p.Passes()}
	var res *core.Result
	err := statsDelta(&es, func(rs *core.RunStats) error {
		runPass := func(e *core.Engine, do core.DiskOpts) (*core.Result, error) {
			do.Run = rs
			r, ds, err := e.RunDiskParallelContext(ctx, db, opts.Workers, do)
			if ds != nil {
				es.Disk.Merge(*ds)
			}
			return r, err
		}
		var auxIn string
		if len(p.aux) > 0 {
			// A private scratch directory per execution: concurrent queries
			// sharing a database directory must not clobber each other's
			// sidecar files. Removing it afterwards — on success, failure
			// and cancellation alike — is what keeps cancelled multi-pass
			// executions from leaking sidecars.
			tmp, remove, err := db.ScratchDir(opts.AuxDir)
			if err != nil {
				return err
			}
			defer remove()
			for k, e := range p.aux {
				auxOut := filepath.Join(tmp, fmt.Sprintf("pass%d.aux", k))
				_, err := runPass(e, core.DiskOpts{
					AuxIn:     auxIn,
					AuxOut:    auxOut,
					AuxOutBit: uint8(k),
					NoPrune:   opts.NoPrune,
					// Each pass has exactly one query predicate, index 0.
				})
				if err != nil {
					return fmt.Errorf("xpath: pass %d: %w", k, err)
				}
				auxIn = auxOut
			}
		}
		var err error
		res, err = runPass(p.main, core.DiskOpts{
			AuxIn:         auxIn,
			KeepStateFile: opts.KeepStates,
			MarkTo:        opts.MarkTo,
			MarkQuery:     opts.MarkQuery,
			NoPrune:       opts.NoPrune,
		})
		return err
	})
	if err != nil {
		return nil, es, err
	}
	return res, es, nil
}
