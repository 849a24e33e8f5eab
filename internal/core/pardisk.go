package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arb/internal/storage"
)

// Tuning knobs for the parallel frontier cut. Variables (not constants)
// so the package tests can exercise the full parallel machinery on small
// trees.
var (
	// parMinNodes is the database size below which the parallel entry
	// points cut no frontier — coordination would cost more than it buys.
	parMinNodes int64 = 1 << 15
	// parMinTask is the smallest subtree worth dispatching as its own
	// chunk; smaller subtrees stay in the leader's glue scan.
	parMinTask int64 = 1 << 12
	// parTasksPerWorker oversizes the frontier so the pool stays busy
	// when chunks finish at different speeds.
	parTasksPerWorker int64 = 4
)

// RunDiskParallelContext evaluates the engine's program over a .arb
// database in secondary storage with a pool of workers, preserving
// RunDiskContext's structure and invariants: phase 1 is one backward
// scan's worth of I/O streaming every node's bottom-up state to the state
// file, phase 2 one forward scan's worth computing the true predicates;
// memory per worker stays bounded by the document depth (plus the shared
// automata); and the selected-node results are identical to
// RunDiskContext's.
//
// Parallelism comes from the preorder layout (Sections 6.2/7 of the
// paper): every subtree is one contiguous byte range, so the database's
// subtree index cuts the file into a frontier of chunks that workers
// stream independently — each through its own buffered reader, writing
// its slice of the state file at its own offset — while the leader scans
// the glue between chunks. The lazily-computed automata are shared
// through the engine's SharedEngine, so transitions computed by one
// worker are reused by all; on balanced trees (ACGT-infix) the phases
// divide evenly, while on degenerate right-deep trees (ACGT-flat) the
// frontier collapses and evaluation degrades toward sequential.
//
// workers <= 0 uses GOMAXPROCS. One worker, a database too small to be
// worth coordinating, and a run that streams marked XML (MarkTo, which
// must emit every node in document order) run with an empty frontier: the
// leader's glue scan over [0, N) is then the sequential two-scan
// algorithm itself. Cancelling ctx aborts all workers' scans with
// ctx.Err() and removes the temporary state file. It is
// RunDiskBatchParallel with e as a batch of one.
func (e *Engine) RunDiskParallelContext(ctx context.Context, db *storage.DB, workers int, opts DiskOpts) (*Result, *DiskStats, error) {
	res, _, ds, err := RunDiskBatchParallel(ctx, db, workers, []BatchMember{{E: e, AuxInSlot: -1, AuxOutSlot: -1}}, DiskBatchOpts{DiskOpts: opts})
	if err != nil {
		return nil, nil, err
	}
	return res[0], ds, nil
}

// RunDiskBatch evaluates every member's program over a .arb database in
// secondary storage with at most two linear scans of the data for the
// whole batch: phase 1 is one backward scan writing every lane's bottom-up
// state per node to one temporary state file; phase 2 is one forward scan
// reading it back and computing the true predicates. A lane whose members'
// selections their bottom-up states decide (analysis.go) is marked in
// phase 1 and takes no part in the state file or phase 2; when every lane
// is, the batch is one backward scan (DiskStats.OneScan). Otherwise, when
// every member's bottom-up states are decided by the records (analysis.go)
// and the run reads no aux input, the batch is one forward scan: phase 2
// alone, every lane taking each node's state from its record, with no
// state file. Members step in lanes
// (product.go): up to 64 query predicates' worth of members share one
// product automaton, so a batch of single-pass queries usually costs one
// automaton step per node and one state id per node, whatever its size.
// Multi-pass members chain their passes through shared scans too: a
// member's aux pass publishes its selection as a plane of
// DiskBatchOpts.Aux, which its later passes read in phase 1. Results are
// identical to running each member through RunDiskContext alone. It is
// RunDiskBatchParallel with one worker: the disk driver run with an empty
// frontier. Cancelling ctx aborts the scan in progress; a failed or
// cancelled run removes its state file and publishes no plane. Marked XML,
// the one per-run option of the embedded DiskOpts that names one query's
// output, needs a batch of one member.
func RunDiskBatch(ctx context.Context, db *storage.DB, members []BatchMember, opts DiskBatchOpts) ([]*Result, Stats, *DiskStats, error) {
	return RunDiskBatchParallel(ctx, db, 1, members, opts)
}

// RunDiskBatchParallel is RunDiskBatch with a pool of workers streaming
// disjoint chunk byte ranges, preserving the aggregate two-linear-scans
// I/O bound exactly as RunDiskParallelContext does for one query: the
// database's subtree index cuts a frontier of chunks, each worker steps
// every lane over its chunk through private dense caches backed by the
// lanes' shared automata, and the leader scans the glue. workers <= 0 uses
// GOMAXPROCS; small databases and single-worker requests run with an empty
// frontier, the leader scanning everything. The returned Stats carries the
// shared phase wall times.
func RunDiskBatchParallel(ctx context.Context, db *storage.DB, workers int, members []BatchMember, opts DiskBatchOpts) ([]*Result, Stats, *DiskStats, error) {
	switch {
	case len(members) == 0:
		return nil, Stats{}, nil, errors.New("core: empty batch")
	case len(members) > 1 && opts.MarkTo != nil:
		return nil, Stats{}, nil, errors.New("core: marked output needs a batch of one member")
	}
	r := newDiskBatch(members, opts)
	defer r.release()
	res, agg, ds, err := r.exec(ctx, db, workers)
	if err == nil {
		r.publish(res) // after every attempt: only a run that succeeded publishes
	}
	return res, agg, ds, err
}

// diskBatch is what one disk run evaluates: its members, in lanes, and the
// aux planes they read. A scalar run is a batch of one.
type diskBatch struct {
	members []BatchMember
	engines []*Engine // the members'
	lanes   []lane
	opts    DiskBatchOpts
	// leader is the leader's step cache per lane, serving every attempt:
	// taken from the lane's automaton and handed back by release
	// (warmCache).
	leader []*StepCache
}

func newDiskBatch(members []BatchMember, opts DiskBatchOpts) *diskBatch {
	r := &diskBatch{members: members, opts: opts, lanes: lanesFor(members, opts.Aux, opts.Run, opts.Products)}
	for _, bm := range members {
		r.engines = append(r.engines, bm.E)
	}
	r.leader = make([]*StepCache, len(r.lanes))
	for li := range r.lanes {
		l := &r.lanes[li]
		r.leader[li] = takeCache(l.st, l.names, l.warm)
	}
	return r
}

// release hands the leader's caches back to their lanes' automata. A
// cache only memoizes its automaton, so a failed run's is as sound as a
// successful one's.
func (r *diskBatch) release() {
	for li, c := range r.leader {
		r.lanes[li].warm.put(c)
	}
}

// exec runs r over db: the state width and the prune plan are chosen per
// attempt, an attempt whose state ids outgrow the width is rerun wide, and
// one that meets a bottom-up state its one-scan verdicts do not cover, or
// a root its forward verdict does not, is rerun with both phases for every
// lane.
func (r *diskBatch) exec(ctx context.Context, db *storage.DB, workers int) (res []*Result, agg Stats, ds *DiskStats, err error) {
	if db.N == 0 {
		return nil, agg, nil, errors.New("core: empty database")
	}
	for _, e := range r.engines {
		if e.names != db.Names {
			// Label[..] tests are resolved against the engine's names; running
			// against a database with a different name table would silently
			// misresolve.
			return nil, agg, nil, errors.New("core: engine name table does not match database")
		}
	}
	err = runOverFrontier(ctx, db, workers, r.opts.MarkTo != nil, func(workers int, idx *storage.SubtreeIndex, tasks []storage.Extent) error {
		plan := r.plan(ctx, db, idx)
		width, oneScan := r.width(), !oneScanOff
		for {
			res, agg, ds, err = r.runDiskChunked(ctx, db, workers, idx, tasks, width, oneScan, plan)
			switch {
			case errors.Is(err, errStateWidth) && width != stateWide:
				width = stateWide
			case errors.Is(err, errTwoScans) && oneScan:
				oneScan = false
			default:
				return err
			}
		}
	})
	return res, agg, ds, err
}

// publish sets the plane of each aux-writing member to the words of its
// result's first query predicate, res being the run's results.
func (r *diskBatch) publish(res []*Result) {
	for m, bm := range r.members {
		if bm.AuxOutSlot < 0 {
			continue
		}
		p := r.opts.Aux[bm.AuxOutSlot]
		if n := int(bm.AuxOutBit) + 1; len(p) < n {
			p = append(p, make(AuxPlanes, n-len(p))...)
		}
		p[bm.AuxOutBit] = res[m].sel[0]
		r.opts.Aux[bm.AuxOutSlot] = p
	}
}

// width is the run's initial state width: the widest any member's engine
// or any lane's product — the tuples a kept one has interned — asks for.
func (r *diskBatch) width() int {
	w := stateByte
	for _, e := range r.engines {
		w = max(w, stateWidthFor(e.BUStateCount()))
	}
	for _, l := range r.lanes {
		if v, ok := l.st.(*productView); ok {
			w = max(w, stateWidthFor(v.buStates()))
		}
	}
	return w
}

// decided reports whether lane l's selections are decided in phase 1 of
// this run, so that the lane needs neither state-file slot nor phase 2:
// every member's program admits one-scan verdicts (analysis.go), and the
// run reads no aux input and writes no marked XML (aux bits are per-node
// facts outside the verdicts, and marked XML needs phase 2's
// document-order visit). An aux-writing lane may be decided: the marks
// phase 1 makes are the plane it publishes.
func (r *diskBatch) decided(l *lane) bool {
	if r.readsAux() || r.opts.MarkTo != nil {
		return false
	}
	for _, m := range l.members {
		if !r.engines[m].OneScan() {
			return false
		}
	}
	return true
}

// forward reports whether this run's bottom-up states are its records'
// (analysis.go), so that phase 2 alone answers it, computing each node's
// state from the record it reads: every member's program admits the
// forward verdict, and the run reads no aux input (aux bits are per-node
// facts outside the records).
func (r *diskBatch) forward() bool {
	if r.readsAux() {
		return false
	}
	for _, e := range r.engines {
		if !e.Forward() {
			return false
		}
	}
	return true
}

// readsAux reports whether a member of the run reads aux input.
func (r *diskBatch) readsAux() bool {
	for _, bm := range r.members {
		if bm.AuxInSlot >= 0 {
			return true
		}
	}
	return false
}

// plan is the one prune gate of the disk runs, scalar and batch. Seeking
// past extents the static analysis proves irrelevant to every member is
// sound only without aux input (aux bits vary per node) and without marked
// output (every node must be emitted); below pruneMinNodes it buys
// nothing. ix is the index the run's frontier was cut from, or nil when it
// has none: the planner then loads the index itself, and failing to costs
// the run its plan, not its answer.
func (r *diskBatch) plan(ctx context.Context, db *storage.DB, ix *storage.SubtreeIndex) *PrunePlan {
	if r.opts.NoPrune || r.readsAux() || r.opts.MarkTo != nil || db.N < pruneMinNodes {
		return nil
	}
	if ix == nil {
		var err error
		if ix, err = db.Index(ctx, 0); err != nil {
			return nil
		}
	}
	return PlanPrune(r.engines, ix, db.N)
}

// runOverFrontier is the routing every disk entry point shares: it
// resolves the worker count, cuts the frontier of chunks a run fans out
// (none for one worker, for a database below parMinNodes, and for ordered
// runs, which must visit every node in document order), and hands both to
// attempt. A run that reports storage.ErrBadExtent cut its chunks from a
// stale or foreign .idx sidecar (e.g. the .arb was replaced out-of-band
// by one of equal size): the index is rebuilt from the file and the run
// attempted once more; a genuinely malformed database fails the rebuild
// scan instead. idx is nil when the run needs no frontier — loading the
// index is then the prune planner's business, and optional.
func runOverFrontier(ctx context.Context, db *storage.DB, workers int, ordered bool, attempt func(workers int, idx *storage.SubtreeIndex, tasks []storage.Extent) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || db.N < parMinNodes || ordered {
		return attempt(workers, nil, nil)
	}
	idx, err := db.Index(ctx, 0)
	if err != nil {
		return err
	}
	target := db.N / (int64(workers) * parTasksPerWorker)
	err = attempt(workers, idx, idx.Cut(target, parMinTask))
	if errors.Is(err, storage.ErrBadExtent) {
		if idx, err = db.RebuildIndex(ctx, 0); err != nil {
			return err
		}
		err = attempt(workers, idx, idx.Cut(target, parMinTask))
	}
	return err
}

// runDiskChunked is one attempt at evaluation over a frontier cut — the
// one disk driver, for scalar runs and batches alike; runOverFrontier
// wraps it with the stale-index retry. With an empty frontier the leader's
// glue scan covers [0, N) and the run is the paper's sequential two-scan
// algorithm. When a prune plan is given, tasks swallowed by a pruned extent
// never run, workers seek past pruned extents inside their own chunks, and
// the leader's glue scan skips the remaining pruned holes. idx is the
// index tasks were cut from (nil for an empty frontier); the plan's own
// index stands in for it otherwise, and every pass serves the gaps between
// its holes that the index holds whole from it (storage.ForwardWindows) —
// the glue record between two pruned extents, a spine node between two
// chunks. Leader and
// workers run the same two window kernels (diskkernel.go) over storage's
// window passes, each stepping every lane; width is the attempt's
// state-file width, and a state id that outgrows it ends the attempt with
// errStateWidth. With oneScan, lanes whose selections their bottom-up
// states decide (decided) are marked in phase 1 and get no state-file
// slot; when no lane has one, the attempt creates no state file and runs
// no phase 2. A state such a lane meets outside its verdicts ends the
// attempt with errTwoScans. Otherwise, with oneScan, an attempt whose
// every member's records decide its bottom-up states (forward) runs
// forward-only: no phase 1 and no state file, chunk roots' states read
// from their records (recordRoots), and phase 2's kernels taking every
// node's state from its record; a root with a second child ends it with
// errTwoScans. A pass that mixes such lanes with others runs both phases.
func (r *diskBatch) runDiskChunked(ctx context.Context, db *storage.DB, workers int, idx *storage.SubtreeIndex, tasks []storage.Extent, width int, oneScan bool, plan *PrunePlan) ([]*Result, Stats, *DiskStats, error) {
	var agg Stats
	var planExts []storage.Extent
	if plan != nil {
		planExts, idx = plan.Extents, plan.ix
	}
	a := &attempt{diskBatch: r, db: db, ix: idx}
	tasks, a.inner, a.outer = splitPrune(tasks, planExts)
	a.tasks = tasks
	a.leaderSkip, a.taskOf = mergeSkipLists(tasks, a.outer)
	if r.opts.MarkTo != nil && len(a.leaderSkip) > 0 {
		return nil, agg, nil, errors.New("core: a marked run needs the leader to visit every node")
	}
	workers = min(workers, len(tasks))

	a.files = &diskFiles{
		n:     db.N,
		w:     width,
		lanes: slices.Clone(r.lanes),
		sels:  make([]*Result, len(r.lanes)),
	}
	a.subs = make([]StateID, len(r.lanes))
	slots := 0
	for li := range a.files.lanes {
		l := &a.files.lanes[li]
		a.subs[li] = l.sub(plan)
		a.files.sels[li] = newSelections(l.nq, db.N)
		if l.slot = -1; !oneScan || !r.decided(l) {
			l.slot, slots = slots, slots+1
		}
	}
	// A pass that phase 1 alone answers stays one backward scan; one that
	// phase 2 alone can answer is one forward scan, every lane in it.
	if a.files.forward = oneScan && slots > 0 && r.forward(); a.files.forward {
		for li := range a.files.lanes {
			a.files.lanes[li].slot = li
		}
		slots = len(a.files.lanes)
	} else if slots > 0 {
		stateF, err := db.CreateScratch(int64(slots) * db.N * int64(width))
		if err != nil {
			return nil, agg, nil, err
		}
		defer stateF.Close()
		a.files.stateF = stateF
	}

	// Per-worker step caches, one per lane, reused across both phases;
	// the leader's are the run's.
	a.caches = make([][]*StepCache, workers)
	for i := range a.caches {
		a.caches[i] = r.newCaches()
	}
	a.leaderCaches = r.leader

	ds := &DiskStats{}
	var rootState []StateID
	var err error
	if !a.files.forward {
		start := time.Now()
		if ds, rootState, err = a.phase1(ctx); err != nil {
			return nil, agg, nil, err
		}
		ds.StateBytes = ds.Phase1.Bytes / storage.NodeSize * int64(width*slots)
		agg.Phase1Time = time.Since(start)
	}
	if slots == 0 || a.files.forward {
		ds.OneScan = 1
	}
	if slots > 0 {
		start := time.Now()
		if a.files.forward {
			rootState, err = a.recordRoots()
		}
		if err == nil {
			ds.Phase2, err = a.phase2(ctx, rootState)
		}
		if err != nil {
			return nil, agg, nil, err
		}
		agg.Phase2Time = time.Since(start)
	}

	res := make([]*Result, len(r.members))
	for li, l := range a.files.lanes {
		for j, m := range l.members {
			res[m] = a.files.sels[li].member(r.members[m].E.c.Prog, l.offs[j])
		}
	}
	// The stale-index, state-width and one-scan retries re-enter this
	// function: only the attempt that succeeds counts.
	creditRun(r.engines, r.opts.Run, db.N, plan, agg)
	return res, agg, ds, nil
}

// attempt is what the two phases of one runDiskChunked attempt share: the
// frontier cut around the prune plan, the kernels' files and caches, and
// phase 1's chunk root states.
type attempt struct {
	*diskBatch
	db           *storage.DB
	ix           *storage.SubtreeIndex // the index tasks and holes were cut from, or nil
	files        *diskFiles
	tasks        []storage.Extent   // the chunks workers fold and scan
	inner        [][]storage.Extent // per task, the pruned extents inside it
	outer        []storage.Extent   // pruned extents outside every task
	leaderSkip   []storage.Extent   // tasks and outer extents, the holes of the leader's scans
	taskOf       []int              // per leaderSkip extent, its task, or -1 for a pruned one
	subs         []StateID          // per lane, the substitute state of a pruned extent
	caches       [][]*StepCache     // per worker, one per lane
	leaderCaches []*StepCache
	rootStates   [][]StateID // per task, phase 1's root states
}

// phase1 folds the database bottom-up: workers fold their chunks — each
// streaming its own byte range backwards and pwriting its stretch of every
// slotted lane's region of the state file, or marking the chunk's nodes —
// then the leader folds the glue, consuming chunk root states. It returns
// the scans' profile and the root's states, one per lane.
func (a *attempt) phase1(ctx context.Context) (*DiskStats, []StateID, error) {
	a.rootStates = make([][]StateID, len(a.tasks))
	outs := make([]chunkOut, len(a.tasks))
	err := runPool(ctx, len(a.caches), len(a.tasks), func(worker, i int) error {
		x := a.tasks[i]
		k := a.files.newFold(a.caches[worker], x, true)
		err := a.db.BackwardWindows(ctx, x.Root, x.End(), a.inner[i], a.ix, &k.st, func(sub storage.Extent) error {
			k.hole(sub, a.subs, true)
			return nil
		}, k.foldWindow)
		if err == nil {
			a.rootStates[i], err = k.finish()
		}
		if err != nil {
			return chunkErr(x, err)
		}
		outs[i].st = k.st
		for li := range k.lanes {
			outs[i].marks = append(outs[i].marks, k.lanes[li].marks)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Leader glue scan: reverse preorder over everything outside the
	// chunks, with each chunk standing in as one already-folded subtree
	// and each leader-level pruned extent as the substitute states.
	fold := a.files.newFold(a.leaderCaches, storage.Extent{Size: a.db.N}, false)
	mi := len(a.leaderSkip) - 1
	err = a.db.BackwardWindows(ctx, 0, a.db.N, a.leaderSkip, a.ix, &fold.st, func(x storage.Extent) error {
		if ti := a.taskOf[mi]; ti < 0 {
			fold.hole(x, a.subs, true)
		} else {
			fold.hole(x, a.rootStates[ti], false)
		}
		mi--
		return nil
	}, fold.foldWindow)
	if err != nil {
		return nil, nil, err
	}
	rootState, err := fold.finish()
	if err != nil {
		return nil, nil, err
	}
	ds := &DiskStats{Phase1: fold.st}
	mergeChunks(&ds.Phase1, outs)
	return ds, rootState, nil
}

// recordRoots stands in for phase 1's root states in a forward attempt:
// each chunk root's states and the document root's, one per lane, from
// their records — served by the attempt's index for every root it holds
// (the document root always; a chunk root unless Cut emitted a subtree
// outside the budget), one record read apiece otherwise
// (storage.DB.RootRecord). A root with a second child, which the forward
// verdict leaves out, ends the attempt with errTwoScans.
func (a *attempt) recordRoots() ([]StateID, error) {
	states := func(v int64) ([]StateID, error) {
		r, err := a.db.RootRecord(a.ix, v)
		if err != nil {
			return nil, err
		}
		out := make([]StateID, len(a.leaderCaches))
		for li, c := range a.leaderCaches {
			var ok bool
			if out[li], ok = c.RecState(r.Encode(), v == 0); !ok {
				return nil, errTwoScans
			}
		}
		return out, nil
	}
	a.rootStates = make([][]StateID, len(a.tasks))
	for i, x := range a.tasks {
		var err error
		if a.rootStates[i], err = states(x.Root); err != nil {
			return nil, err
		}
	}
	return states(0)
}

// phase2 computes the top-down states of the lanes with a state-file slot:
// the leader forward over the glue first, assigning each chunk root its
// top-down entry states, then the workers descend into the chunks. It
// returns the scans' profile.
func (a *attempt) phase2(ctx context.Context, rootState []StateID) (st storage.ScanStats, err error) {
	db, files := a.db, a.files
	rootTD := make([]StateID, len(files.lanes))
	for li, c := range a.leaderCaches {
		rootTD[li] = NoState
		if files.lanes[li].slot >= 0 {
			rootTD[li] = c.RootTrueSet(rootState[li])
		}
	}
	scan := files.newScan(a.leaderCaches, storage.Extent{Size: db.N}, rootState, rootTD, false)
	var emitter *storage.XMLEmitter
	if a.opts.MarkTo != nil {
		emitter = storage.NewXMLEmitter(a.opts.MarkTo, db.Names)
		markBit := uint64(1) << uint(a.opts.MarkQuery)
		scan.visit = func(v int64, rec uint16, mask uint64) error {
			return emitter.Node(v, storage.DecodeRecord(rec), mask&markBit != 0)
		}
	}
	tdRoots := make([][]StateID, len(a.tasks))
	mi := 0
	err = db.ForwardWindows(ctx, 0, db.N, a.leaderSkip, a.ix, &scan.st, func(x storage.Extent) (err error) {
		ti := a.taskOf[mi]
		mi++
		if ti >= 0 {
			if tdRoots[ti], err = scan.entryStates(x, a.rootStates[ti]); err != nil {
				return err
			}
		}
		return scan.hole(x, ti < 0)
	}, scan.scanWindow)
	if err == nil {
		err = scan.finish()
	}
	if err != nil {
		return st, err
	}

	// Workers: descend into the chunks from their entry states,
	// accumulating marks in private per-chunk bitsets merged after the
	// join.
	st = scan.st
	outs := make([]chunkOut, len(a.tasks))
	err = runPool(ctx, len(a.caches), len(a.tasks), func(worker, i int) error {
		x := a.tasks[i]
		k := files.newScan(a.caches[worker], x, a.rootStates[i], tdRoots[i], true)
		err := db.ForwardWindows(ctx, x.Root, x.End(), a.inner[i], a.ix, &k.st, func(sub storage.Extent) error {
			return k.hole(sub, true)
		}, k.scanWindow)
		if err == nil {
			err = k.finish()
		}
		if err != nil {
			return chunkErr(x, err)
		}
		outs[i].st = k.st
		for li := range k.lanes {
			outs[i].marks = append(outs[i].marks, k.lanes[li].marks)
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	mergeChunks(&st, outs)
	if emitter != nil {
		if err := emitter.Finish(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// newCaches returns a fresh step cache per lane, for one worker of one
// attempt.
func (r *diskBatch) newCaches() []*StepCache {
	cs := make([]*StepCache, len(r.lanes))
	for li, l := range r.lanes {
		cs[li] = takeCache(l.st, l.names, nil)
	}
	return cs
}

// chunkErr dresses a structure fault inside a chunk as storage.ErrBadExtent:
// the chunk was cut from the subtree index, so records that do not form one
// subtree there mean a stale or foreign index, and runOverFrontier rebuilds
// it. Everything else — cancellation, I/O, errStateWidth — passes through.
func chunkErr(x storage.Extent, err error) error {
	if errors.Is(err, storage.ErrMalformed) {
		return fmt.Errorf("%w: chunk [%d,%d): %v", storage.ErrBadExtent, x.Root, x.End(), err)
	}
	return err
}

// chunkOut is what a worker's chunk hands its driver: the chunk's scan
// profile and each lane's private marks. Each task writes its own slot,
// and the driver merges them after the join, so the merge takes no lock.
type chunkOut struct {
	st    storage.ScanStats
	marks []laneMarks
}

// mergeChunks folds joined chunks' profiles into st and their marks into
// the lanes' Results.
func mergeChunks(st *storage.ScanStats, outs []chunkOut) {
	for _, o := range outs {
		st.Merge(o.st)
		for i := range o.marks {
			o.marks[i].merge()
		}
	}
}

// runPool fans n task indices out over a worker pool, stopping at the
// first error or when ctx is cancelled (in which case it reports
// ctx.Err() unless a task failed). run receives the worker id so callers
// can give each goroutine private caches. Each task's error lands in its
// own slot; after the join, the lowest-numbered task's error wins.
func runPool(ctx context.Context, workers, n int, run func(worker, i int) error) error {
	if n == 0 {
		return ctx.Err() // nothing to fan out: an empty frontier
	}
	if workers > n {
		workers = n
	}
	ch := make(chan int)
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range ch {
				if failed.Load() || ctx.Err() != nil {
					continue
				}
				if errs[i] = run(worker, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
