package arb

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"arb/internal/guard"
	"arb/internal/rescache"
	"arb/internal/storage"
	"arb/internal/tree"
	"arb/internal/vstore"
	"arb/internal/xpath"
)

// Session wraps one open query source and is the root of everything
// shared between the queries prepared on it: the label-name table every
// engine resolves Label[..] tests against, and the database (for a tree,
// its record image) with its lazily built subtree index, which the
// parallel evaluator cuts its chunk frontier from. Queries enter through
// Prepare/PrepareXPath, whose PreparedQuery handles persist the compiled
// automata across executions — the compile-once, query-many shape the
// paper's engine is built for.
//
// Every session reads a versioned store, and every execution pins one
// version snapshot of it for its whole run. A tree (NewSession), a
// caller's database (NewDBSession) or a plain database on disk
// (OpenSession) is a read-only store of one version, 1, read straight from
// that database; a patched database (OpenSession) or any database opened
// through OpenVersionedSession also takes Patch and Compact, which publish
// new versions without disturbing running executions.
//
// A Session is safe for concurrent use: any number of goroutines may
// prepare and execute queries on it at once (disk reads are
// offset-addressed, so one file handle serves all scans), and executions
// of one PreparedQuery or PreparedBatch handle may overlap freely — the
// compiled automata behind a handle are internally synchronised, so a
// plan cached and shared across a server's concurrent requests never
// queues those requests behind each other.
type Session struct {
	vs *vstore.Store

	// rc is the session's result cache (SetResultCache), shared by every
	// query prepared on the session; nil means no result caching. Set it
	// before executions begin — the field itself is not synchronised.
	rc *rescache.Cache
}

// NewSession opens a session over an in-memory tree, which must be laid
// out in preorder (Tree.CheckPreorder; ParseXML and TreeBuilder always
// are). Executions run over the tree's record image — 2 bytes a node,
// encoded here and kept — through the same driver as databases, with their
// temporaries in RAM: an in-memory session touches no file system. A tree
// that is not in preorder fails every execution.
func NewSession(t *Tree) *Session {
	db, _ := storage.OpenTree(t, nil) // a failed image fails every read with the reason
	return &Session{vs: vstore.ReadOnly(db, false)}
}

// NewDBSession opens a session over an already-open database. Closing the
// session does not close the database; the caller keeps ownership.
func NewDBSession(db *DB) *Session { return &Session{vs: vstore.ReadOnly(db, false)} }

// OpenSession opens the database stored at base (base.arb, base.lab) in a
// session that owns it: Close closes it too. When a base.arbm version
// manifest is present — the database has been patched — the session is
// OpenVersionedSession's and accepts Patch/Compact. A plain database opens
// read-only, as version 1, and opening it changes no file (use
// OpenVersionedSession to patch one for the first time).
func OpenSession(base string) (*Session, error) {
	versioned, err := vstore.Versioned(base)
	if err != nil {
		return nil, err
	}
	if versioned {
		return OpenVersionedSession(nil, base)
	}
	db, err := storage.Open(base)
	if err != nil {
		return nil, err
	}
	return &Session{vs: vstore.ReadOnly(db, true)}, nil
}

// Close releases the session's store, and with it the database when the
// session owns one.
func (s *Session) Close() error { return s.vs.Close() }

// Names returns the label-name table of the session's current version;
// patches that introduce new tags publish a grown copy, and ids never
// change meaning (tables only append), so labels resolved against an
// older table stay valid.
func (s *Session) Names() *Names { return s.vs.Names() }

// Compression reports the block-compression container of the database
// the session reads directly, when it is a compressed .arb. Trees report
// none; versioned sessions also report none here — their segments are
// individually compressed (or not) behind the run table.
func (s *Session) Compression() (info CompressionInfo, ok bool) {
	s.pinned(func(db *storage.DB, _ *tree.Names, _ uint64) error {
		info, ok = db.Compression()
		return nil
	})
	return info, ok
}

// Len returns the number of nodes of the session's current version.
func (s *Session) Len() int64 { return s.vs.Nodes() }

// SetResultCache attaches a result cache of the given byte budget to the
// session: executions opting in via ExecOpts.ResultCache publish their
// completed results keyed by (normalized query text, database version)
// and answer repeats — exact or semantically subsumed — without
// scanning. maxBytes <= 0 disables caching. Call before executions
// begin; the cache itself is safe for any amount of concurrency.
//
// Every execution pins a version, and entries only answer requests
// pinning the same one, so patches never serve stale answers. A tree
// session's one version assumes the tree is not mutated while the session
// lives — the same contract its record image already relies on.
func (s *Session) SetResultCache(maxBytes int64) { s.rc = rescache.New(maxBytes) }

// ResultCacheStats reports the result cache's counters; ok is false when
// the session has no result cache.
func (s *Session) ResultCacheStats() (ResultCacheStats, bool) {
	if s.rc == nil {
		return ResultCacheStats{}, false
	}
	return s.rc.Stats(), true
}

// pinned runs fn on the version one execution reads: its database
// handle, the label-name table to compile against, and its version id.
// The snapshot stays pinned for fn's whole run — fn keeps reading that
// version however many patches commit meanwhile — and is released when fn
// returns or panics, which is what lets the store collect superseded
// versions and their patch segments.
func (s *Session) pinned(fn func(db *storage.DB, names *tree.Names, version uint64) error) error {
	snap := s.vs.Snapshot()
	defer snap.Release()
	return fn(snap.DB(), snap.Names(), snap.Version())
}

// Prepare compiles a TMNF program against the session: the result's
// automata are built lazily on first execution and persist across
// executions, so repeated queries pay the compilation and Horn-solving
// cost once.
func (s *Session) Prepare(prog *Program) (*PreparedQuery, error) {
	names := s.Names()
	p, err := xpath.PrepareProgram(prog, names)
	if err != nil {
		return nil, err
	}
	return newPreparedQuery(s, prog, names, p), nil
}

// PrepareXPath compiles a Core XPath query against the session. Queries
// in the positive fragment become one pass; every not(..) condition adds
// an auxiliary pass, whose selection later passes read as an aux
// predicate — Exec runs all passes and returns the main pass's result.
func (s *Session) PrepareXPath(q *XPathQuery) (*PreparedQuery, error) {
	names := s.Names()
	p, err := q.Prepare(names)
	if err != nil {
		return nil, err
	}
	return newPreparedQuery(s, q, names, p), nil
}

// PrepareBatch compiles several queries against the session for
// shared-scan batch execution: PreparedBatch.Exec evaluates all of them
// during one shared round of scans per pass, so a workload of N single-pass
// queries over a disk session costs two linear scans of the data in
// aggregate instead of 2N — one, when every member's selection is decided
// by the bottom-up pass. Each item must be a *Program (TMNF) or an
// *XPathQuery (Core XPath, including not(..) queries, whose auxiliary
// passes piggyback on the other members' scans). Like PreparedQuery, the
// members' lazily built automata persist across executions.
func (s *Session) PrepareBatch(items ...any) (*PreparedBatch, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("arb: PrepareBatch needs at least one query")
	}
	members := make([]*PreparedQuery, len(items))
	for i, item := range items {
		var err error
		switch q := item.(type) {
		case *Program:
			members[i], err = s.Prepare(q)
		case *XPathQuery:
			members[i], err = s.PrepareXPath(q)
		default:
			err = fmt.Errorf("unsupported type %T (want *arb.Program or *arb.XPathQuery)", item)
		}
		if err != nil {
			return nil, fmt.Errorf("arb: PrepareBatch item %d: %w", i, err)
		}
	}
	return &PreparedBatch{s: s, members: members}, nil
}

// BatchOf groups queries already prepared on this session into a
// PreparedBatch without recompiling them: the batch's members are the
// handles' own compiled passes, so their warm automata — transition
// tables paid for by earlier scalar executions — drive the shared scans
// directly, and work computed during the batch warms the scalar handles
// in return: keep one PreparedQuery per distinct query text, and run
// whatever mix of them a caller needs answered together as one
// shared-scan execution.
//
// The handles remain independently usable (including concurrently with
// batch executions that contain them). Every query must have been
// prepared on this session; duplicates are allowed but cost a redundant
// member each — deduplicate first.
func (s *Session) BatchOf(queries ...*PreparedQuery) (*PreparedBatch, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("arb: BatchOf needs at least one query")
	}
	members := make([]*PreparedQuery, len(queries))
	for i, q := range queries {
		if q == nil {
			return nil, fmt.Errorf("arb: BatchOf: query %d is nil", i)
		}
		if q.s != s {
			return nil, fmt.Errorf("arb: BatchOf: query %d was prepared on a different session", i)
		}
		members[i] = q
	}
	return &PreparedBatch{s: s, members: members}, nil
}

// ExecOpts configures one execution of a prepared query. The zero value
// is a sequential run returning just the result.
type ExecOpts struct {
	// Workers is the number of parallel evaluation workers: 0 or 1 runs
	// the sequential paths, n > 1 runs n workers over a frontier of
	// disjoint subtrees (chunk byte ranges on disk), and any negative
	// value uses all CPUs. Results are identical at every setting.
	Workers int
	// Stats asks Exec to return a Profile of this execution's cost;
	// when false Exec returns a nil Profile.
	Stats bool
	// MarkTo, when non-nil, streams the document back out as XML with
	// the nodes selected by query predicate MarkQuery (an index into
	// Queries()) marked up — the system's default output mode
	// (Section 6.3). The marked document is produced during the final
	// pass's forward scan itself; marking forces that pass sequential.
	MarkTo    io.Writer
	MarkQuery int
	// NoPrune disables selectivity-aware scan pruning for this
	// execution. By default every strategy seeks past whole subtrees the
	// compiled automata provably cannot select from (using the label
	// summaries of the database's .idx sidecar, or of an index built from
	// an in-memory session's record image), turning the two-scan cost into
	// one proportional to query selectivity; results are bit-identical either way, and
	// Profile reports what was skipped (Disk.PhaseN.SkippedBytes,
	// Engine.PrunedNodes). Executions that stream marked XML or read aux
	// planes never prune regardless of this flag.
	NoPrune bool
	// ResultCache opts this execution into the session's result cache
	// (SetResultCache): a completed result is published under the query's
	// normalized text and the pinned version, and a repeat at the same
	// version is answered from the cache — exactly, or by re-filtering a
	// cached superset when the selection summaries prove containment —
	// with zero scans (Profile.Passes is 0 and Profile.ResultCache names
	// the hit kind). Ignored without a session cache, and never applied
	// to executions that stream marked XML.
	ResultCache bool
}

// Profile is the merged cost profile of one Exec across all its passes:
// the engine work (the paper's Figure 6 columns, counting only this
// execution — a warm prepared query computes few or no new transitions)
// and, for disk sessions, the scan profile of Figure 5's storage model.
type Profile struct {
	Engine Stats     // automata work: phase times, lazy transitions, states
	Disk   DiskStats // linear-scan profile (of the record image, in memory)
	Passes int       // automata passes executed (auxiliary + main)
	// Workers is the resolved worker request the execution dispatched
	// with; databases below the parallel evaluator's coordination
	// threshold and marked-output passes may still evaluate
	// sequentially.
	Workers int
	// Version is the database version this execution read — every
	// execution pins exactly one MVCC snapshot for all its passes, so
	// concurrent patches never change an execution's data mid-flight. A
	// read-only session's one version is 1.
	Version  uint64
	Duration time.Duration
	// ResultCache reports how the result cache served this execution:
	// "hit" (exact), "subsumed" (re-filtered from a cached superset),
	// "miss" (cache enabled, executed normally), or "" (cache not in
	// play). On hits the execution ran zero scans: Passes is 0 and the
	// Engine/Disk profiles are zero.
	ResultCache string
}

// SkippedBytes returns the total .arb bytes this execution's scans
// seeked past thanks to selectivity-aware pruning. Within each pass,
// Bytes + SkippedBytes covers the database exactly once per phase that
// ran — both, unless the pass took one scan (Disk.OneScan counts those
// passes): it omitted phase 2 because its selections were decided
// bottom-up, or phase 1 because its records decided its bottom-up states
// (a forward scan, whose Phase1 is zero); the merged Profile accumulates
// that over the execution's passes, so a P-pass execution's phase-1 and
// phase-2 totals add up to (2P − Disk.OneScan) × database size. In-memory
// sessions count the bytes of their record image.
func (p *Profile) SkippedBytes() int64 {
	return p.Disk.Phase1.SkippedBytes + p.Disk.Phase2.SkippedBytes
}

// IndexBytes returns the .arb bytes this execution's scans took from the
// subtree index instead of reading them: the records of gaps between
// skipped extents (pruned ones, or chunks the leader leaves to workers)
// whose every node roots an index entry — typically the one glue record
// between two pruned extents. They count in Disk.PhaseN.Bytes and
// Disk.PhaseN.IndexBytes, never in Disk.PhaseN.PhysicalBytes.
func (p *Profile) IndexBytes() int64 {
	return p.Disk.Phase1.IndexBytes + p.Disk.Phase2.IndexBytes
}

// PreparedQuery is a query compiled against one Session, ready for
// repeated execution. The pair of deterministic tree automata per pass is
// computed lazily and persists across Exec calls (the paper's footnote
// 15), so a warm query evaluates with two table lookups per node.
//
// Exec is reentrant: any number of goroutines may execute one handle at
// once and the executions overlap, sharing the warm automata through the
// engines' internal locks — the shape a server's plan cache needs, where
// one hot handle fields many concurrent requests. Disk executions overlap
// freely: each keeps its phase-1 states in its own anonymous state file.
type PreparedQuery struct {
	s   *Session
	src any // recompilation source: *Program or *XPathQuery

	// cacheKey returns the query's normalized result-cache key: the same
	// "xpath:"/"tmnf:"-prefixed normal form the server's plan cache keys
	// by, so one identity serves both tiers. It is rendered once, on first
	// use, from the source alone (not the name table), so it survives
	// recompilation.
	cacheKey func() string

	// On a versioned session a patch that introduces new tag names
	// publishes a grown label table; engines are bound to the exact
	// table their database snapshot carries, so the handle recompiles
	// lazily when the table identity changes (tables only append, so
	// the recompiled plan answers identically on unchanged labels).
	// Patches that add no tags keep the table — and the warm automata.
	bound *guard.Mutex[boundPlan]
}

// boundPlan is a query's compiled handle and the name table it is
// compiled against. Recompiling swaps the pointer only; the handle itself
// is reentrant.
type boundPlan struct {
	names *tree.Names
	p     *xpath.Prepared
}

// newPreparedQuery returns the handle of src, compiled to p against names.
func newPreparedQuery(s *Session, src any, names *tree.Names, p *xpath.Prepared) *PreparedQuery {
	return &PreparedQuery{
		s:   s,
		src: src,
		cacheKey: sync.OnceValue(func() string {
			switch src := src.(type) {
			case *XPathQuery:
				return "xpath:" + src.Path.String()
			case *Program:
				return "tmnf:" + src.String()
			}
			return ""
		}),
		bound: guard.New(boundPlan{names: names, p: p}),
	}
}

// handle returns the current compiled handle (for inspection paths that
// do not care which name-table generation it is bound to).
func (q *PreparedQuery) handle() (p *xpath.Prepared) {
	q.bound.Do(func(b *boundPlan) { p = b.p })
	return p
}

// prepared returns the compiled handle bound to names, recompiling once
// per name-table generation. The common case — read-only sessions, and
// versioned sessions whose patches added no tags — is a pointer
// compare returning the cached handle.
func (q *PreparedQuery) prepared(names *tree.Names) (p *xpath.Prepared, err error) {
	q.bound.Do(func(b *boundPlan) {
		if names == b.names {
			p = b.p
			return
		}
		switch src := q.src.(type) {
		case *Program:
			p, err = xpath.PrepareProgram(src, names)
		case *XPathQuery:
			p, err = src.Prepare(names)
		default:
			err = fmt.Errorf("arb: unknown query source %T", q.src)
		}
		if err != nil {
			p = nil
			return
		}
		b.names, b.p = names, p
	})
	return p, err
}

// Queries returns the query predicates Exec's result reports, in the
// program's declaration order (XPath queries have exactly one).
func (q *PreparedQuery) Queries() []Pred { return q.handle().Queries() }

// Program returns the program of the query's main pass (for predicate
// naming and inspection).
func (q *PreparedQuery) Program() *Program { return q.handle().Program() }

// Exec runs the query over the session's source and returns the unified
// result: the one driver over the session's database (an in-memory
// session's record image), sequential or parallel (opts.Workers), single-
// or multi-pass — always the same two-phase tree-automata engine, so the
// selected nodes are identical on every path.
//
// Cancelling ctx aborts the scan in progress: Exec returns ctx.Err()
// (wrapped, so errors.Is reports context.Canceled or DeadlineExceeded)
// and every temporary file the execution created — its state files — is
// removed. A nil ctx means context.Background().
func (q *PreparedQuery) Exec(ctx context.Context, opts ExecOpts) (*Result, *Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.MarkTo != nil {
		if nq := len(q.Queries()); opts.MarkQuery < 0 || opts.MarkQuery >= nq {
			return nil, nil, fmt.Errorf("arb: MarkQuery %d out of range (the query defines %d predicates)", opts.MarkQuery, nq)
		}
	}
	var res *Result
	var prof *Profile
	err := q.s.pinned(func(db *storage.DB, names *tree.Names, version uint64) error {
		p, err := q.prepared(names)
		if err != nil {
			return err
		}
		start := time.Now()
		// Result cache: look up at the pinned version before scanning
		// (exec publishes on clean completion).
		cacheKind := ""
		if q.s.cached(opts, db) {
			if hit, kind := q.s.rc.Lookup(q.cacheKey(), version, p.Summary(), p.Program(), db.N); kind != rescache.Miss {
				res = hit
				if opts.Stats {
					prof = &Profile{
						Workers:     resolveWorkers(opts.Workers),
						Version:     version,
						Duration:    time.Since(start),
						ResultCache: kind.String(),
					}
				}
				return nil
			}
			cacheKind = rescache.Miss.String()
		}
		ps := []*xpath.Prepared{p}
		rs, pr, err := q.s.exec(ctx, db, version, []*PreparedQuery{q}, ps, xpath.NewBatch(ps), opts, start, cacheKind)
		if err != nil {
			return err
		}
		res, prof = rs[0], pr
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// resolveWorkers maps ExecOpts.Workers to the worker count an execution
// dispatches with: 0 and 1 run sequentially, a negative request uses all
// CPUs.
func resolveWorkers(n int) int {
	if n < 0 {
		return xpath.ResolveWorkers(0)
	}
	return max(n, 1)
}

// cached reports whether an execution with opts over db takes part in the
// session's result cache. Marked-output executions bypass it — the marked
// document is the point, and a cached Result carries none.
func (s *Session) cached(opts ExecOpts, db *storage.DB) bool {
	return opts.ResultCache && s.rc != nil && opts.MarkTo == nil && db.N < rescache.MaxNodes
}

// exec is the one Exec body of PreparedQuery and PreparedBatch, run once
// the snapshot (db at version) is pinned and the members are compiled (ps,
// of the handles qs): it runs them as the xpath batch xb over ps — a
// scalar query is a batch of one — and publishes every member's completed result at the
// pinned version when the execution takes part in the result cache, so a
// batch warms the cache for all the queries it carried (lookups stay with
// the scalar path: a batch always scans). The Profile times the execution from start and reports
// cacheKind as its ResultCache.
func (s *Session) exec(ctx context.Context, db *storage.DB, version uint64, qs []*PreparedQuery, ps []*xpath.Prepared, xb *xpath.Batch, opts ExecOpts, start time.Time, cacheKind string) ([]*Result, *Profile, error) {
	workers := resolveWorkers(opts.Workers)
	res, es, err := xb.ExecDisk(ctx, db, xpath.ExecOpts{
		Workers:   workers,
		MarkTo:    opts.MarkTo,
		MarkQuery: opts.MarkQuery,
		NoPrune:   opts.NoPrune,
	})
	if err != nil {
		return nil, nil, err
	}
	if s.cached(opts, db) {
		for i, q := range qs {
			sum := ps[i].Summary()
			var ids []uint64
			if sum != nil {
				ids = packIDs(res[i], ps[i].Queries(), db, s.rc.IDBudget())
			}
			s.rc.Put(q.cacheKey(), version, res[i], sum, ids)
		}
	}
	if !opts.Stats {
		return res, nil, nil
	}
	return res, &Profile{
		Engine:      es.Engine,
		Disk:        es.Disk,
		Passes:      es.Passes,
		Workers:     workers,
		Version:     version,
		Duration:    time.Since(start),
		ResultCache: cacheKind,
	}, nil
}

// TryCached answers the query from the session's result cache without
// executing anything: it pins the session's current version, consults
// the cache (exactly or via subsumption), and reports ok=false on a
// miss or when the session has no cache. Servers call it before
// queueing work — a hit costs no scan, no queue slot and no wait for an
// execution slot. The returned Profile carries the pinned version and the hit
// kind in Profile.ResultCache.
func (q *PreparedQuery) TryCached() (*Result, *Profile, bool) {
	rc := q.s.rc
	if rc == nil {
		return nil, nil, false
	}
	start := time.Now()
	var res *Result
	var prof *Profile
	err := q.s.pinned(func(db *storage.DB, names *tree.Names, version uint64) error {
		p, err := q.prepared(names)
		if err != nil || db.N >= rescache.MaxNodes {
			return err
		}
		hit, kind := rc.Lookup(q.cacheKey(), version, p.Summary(), p.Program(), db.N)
		if kind != rescache.Miss {
			res, prof = hit, &Profile{
				Version:     version,
				Duration:    time.Since(start),
				ResultCache: kind.String(),
			}
		}
		return nil
	})
	if err != nil || prof == nil {
		return nil, nil, false
	}
	return res, prof, true
}

// packIDs renders the packed (id, label, root) subsumption list of a
// completed single-query result, reading labels by random record access
// against the pinned database (or the tree's record image). Returns nil —
// the entry then serves exact hits only — when the result selects more
// ids than the cache admits or a label cannot be read.
func packIDs(res *Result, qs []Pred, db *storage.DB, budget int64) []uint64 {
	if len(qs) != 1 {
		return nil
	}
	count := res.Count(qs[0])
	if count > budget {
		return nil
	}
	ids := make([]uint64, 0, count)
	ok := true
	res.Walk(qs[0], func(v tree.NodeID) bool {
		rec, err := db.RecordAt(int64(v))
		if err != nil {
			ok = false
			return false
		}
		ids = append(ids, rescache.PackID(int64(v), tree.Label(rec.Label), v == 0))
		return true
	})
	if !ok {
		return nil
	}
	return ids
}

// Count is a convenience for the common single-query case: it executes
// the query sequentially and returns how many nodes its first query
// predicate selected.
func (q *PreparedQuery) Count(ctx context.Context) (int64, error) {
	res, _, err := q.Exec(ctx, ExecOpts{})
	if err != nil {
		return 0, err
	}
	return res.Count(q.Queries()[0]), nil
}

// PreparedBatch is a set of queries compiled against one Session that
// execute together: one Exec evaluates every member during one shared
// round of linear scans (two, or one when the bottom-up pass decides every
// member's selection) per pass, sharing the tree or byte-range iteration
// and (on disk) one state file and the automaton steps — the members step
// the product of their automata — while each member keeps its own
// automata and its own result. Multi-pass members
// are scheduled so that round r runs pass r of every member that still
// has one — the number of rounds is the longest member's pass count,
// not the sum over members.
//
// Exec is reentrant exactly as PreparedQuery.Exec is: executions of one
// PreparedBatch may overlap, and the members' automata persist across
// executions exactly as a PreparedQuery's do. So does what the batch
// builds on top of them: the product automata its members step together,
// with their transition tables, are kept from one Exec to the next, and
// freed with the batch — or when a patch that adds tag names makes the
// members recompile.
type PreparedBatch struct {
	s       *Session
	members []*PreparedQuery
	bound   guard.Mutex[boundBatch]
}

// boundBatch is a batch's execution layer and the compiled members it was
// built over.
type boundBatch struct {
	ps []*xpath.Prepared
	b  *xpath.Batch
}

// batch returns the xpath.Batch over ps: the kept one while the members'
// compiled handles are the ones it was built over, so its products stay
// warm across Execs, and a new one, dropping the old products, once a
// member has recompiled against a new name table.
func (b *PreparedBatch) batch(ps []*xpath.Prepared) (xb *xpath.Batch) {
	b.bound.Do(func(bb *boundBatch) {
		if !slices.Equal(bb.ps, ps) {
			bb.ps, bb.b = ps, xpath.NewBatch(ps)
		}
		xb = bb.b
	})
	return xb
}

// Len returns the number of member queries.
func (b *PreparedBatch) Len() int { return len(b.members) }

// Queries returns the query predicates of member i, in its program's
// declaration order — the predicates to look up in Exec's i-th result.
func (b *PreparedBatch) Queries(i int) []Pred { return b.members[i].Queries() }

// Program returns the program of member i's main pass (for predicate
// naming and inspection).
func (b *PreparedBatch) Program(i int) *Program { return b.members[i].Program() }

// Rounds returns the number of shared scan rounds one Exec runs: 1 for a
// batch of single-pass queries — at most two linear scans in aggregate,
// however many queries the batch holds — plus one per extra not(..)
// nesting level of the deepest multi-pass member.
func (b *PreparedBatch) Rounds() int {
	r := 0
	for _, m := range b.members {
		if p := m.handle().Passes(); p > r {
			r = p
		}
	}
	return r
}

// Exec evaluates every member query over the session's source during
// shared scans and returns one Result per member, in PrepareBatch order.
// The selected nodes are bit-identical to executing each member through
// its own PreparedQuery. ExecOpts.Workers picks sequential or parallel
// evaluation exactly as for a single query; ExecOpts.MarkTo does not apply
// to batches and is rejected. The returned
// Profile is the merged cost of the whole batch — Profile.Passes counts
// the scheduled rounds, and on disk the bytes-read counters of
// Profile.Disk show each aggregate scan reading the database exactly once
// per phase that ran (Profile.SkippedBytes).
//
// Cancelling ctx aborts the scan in progress: Exec returns ctx.Err()
// (wrapped) and removes every temporary file — the state file. A nil ctx
// means context.Background().
func (b *PreparedBatch) Exec(ctx context.Context, opts ExecOpts) ([]*Result, *Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.MarkTo != nil {
		return nil, nil, fmt.Errorf("arb: MarkTo is not supported for batch execution; mark through a single PreparedQuery")
	}
	// One snapshot serves the whole batch: every member scans the same
	// version.
	var res []*Result
	var prof *Profile
	err := b.s.pinned(func(db *storage.DB, names *tree.Names, version uint64) (err error) {
		members := make([]*xpath.Prepared, len(b.members))
		for i, m := range b.members {
			if members[i], err = m.prepared(names); err != nil {
				return err
			}
		}
		res, prof, err = b.s.exec(ctx, db, version, b.members, members, b.batch(members), opts, time.Now(), "")
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, prof, nil
}

// Count executes the batch sequentially and returns, per member, how
// many nodes its first query predicate selected — the batch counterpart
// of PreparedQuery.Count.
func (b *PreparedBatch) Count(ctx context.Context) ([]int64, error) {
	res, _, err := b.Exec(ctx, ExecOpts{})
	if err != nil {
		return nil, err
	}
	counts := make([]int64, len(res))
	for i, r := range res {
		counts[i] = r.Count(b.Queries(i)[0])
	}
	return counts, nil
}
