package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
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
// ctx.Err() and removes the temporary state file and any partially
// written AuxOut sidecar.
func (e *Engine) RunDiskParallelContext(ctx context.Context, db *storage.DB, workers int, opts DiskOpts) (*Result, *DiskStats, error) {
	res, agg, ds, err := e.asBatch(opts).exec(ctx, db, workers)
	if err != nil {
		return nil, nil, err
	}
	e.addPhaseTimes(agg.Phase1Time, agg.Phase2Time)
	opts.Run.AddPhaseTimes(agg.Phase1Time, agg.Phase2Time)
	return res[0], ds, nil
}

// RunDiskBatch evaluates every member's program over a .arb database in
// secondary storage with exactly two linear scans of the data for the
// whole batch: phase 1 is one backward scan writing every lane's bottom-up
// state per node to one temporary state file; phase 2 is one forward scan
// reading it back and computing the true predicates. Members step in lanes
// (product.go): up to 64 query predicates' worth of members share one
// product automaton, so a batch of single-pass queries usually costs one
// automaton step per node and one state id per node, whatever its size.
// Auxiliary masks ride in widened sidecars with one slot per member
// (DiskBatchOpts), so multi-pass members chain their passes through shared
// scans too. Results are identical to running each member through
// RunDiskContext alone. It is RunDiskBatchParallel with one worker: the
// disk driver run with an empty frontier. Cancelling ctx aborts the scan
// in progress; a failed or cancelled run removes the state file and any
// partially written AuxOut sidecar.
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
	if len(members) == 0 {
		return nil, Stats{}, nil, errors.New("core: empty batch")
	}
	return newDiskBatch(members, opts).exec(ctx, db, workers)
}

// diskBatch is what one disk run evaluates: its members, in lanes, and the
// sidecars around them. A scalar run is a batch of one whose sidecars have
// one slot, plus the options only it may set (a named or kept state file
// of 4-byte ids, marked output).
type diskBatch struct {
	members []BatchMember
	engines []*Engine // the members'
	lanes   []lane
	opts    DiskBatchOpts
	scalar  DiskOpts // StatePath, KeepStateFile, MarkTo and MarkQuery
}

func newDiskBatch(members []BatchMember, opts DiskBatchOpts) *diskBatch {
	r := &diskBatch{members: members, opts: opts, lanes: lanesFor(members, opts.AuxIn != "", opts.Run)}
	for _, bm := range members {
		r.engines = append(r.engines, bm.E)
	}
	return r
}

// asBatch is the scalar run as a batch of one.
func (e *Engine) asBatch(opts DiskOpts) *diskBatch {
	bm := BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1, AuxOutBit: opts.AuxOutBit, AuxOutQuery: opts.AuxOutQuery}
	bo := DiskBatchOpts{AuxIn: opts.AuxIn, AuxOut: opts.AuxOut, NoPrune: opts.NoPrune, Run: opts.Run}
	if opts.AuxIn != "" {
		bm.AuxInSlot, bo.AuxInStride = 0, 1
	}
	if opts.AuxOut != "" {
		bm.AuxOutSlot, bo.AuxOutStride = 0, 1
	}
	r := newDiskBatch([]BatchMember{bm}, bo)
	r.scalar = opts
	return r
}

// exec runs r over db: the state width and the prune plan are chosen per
// attempt, and an attempt whose state ids outgrow the width is rerun wide.
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
	err = runOverFrontier(ctx, db, workers, r.ordered(db), func(workers int, idx *storage.SubtreeIndex, tasks []storage.Extent) error {
		plan := r.plan(ctx, db, idx)
		res, agg, ds, err = r.runDiskChunked(ctx, db, workers, tasks, r.width(), plan)
		if errors.Is(err, errStateWidth) {
			res, agg, ds, err = r.runDiskChunked(ctx, db, workers, tasks, stateWide, plan)
		}
		return err
	})
	return res, agg, ds, err
}

// ordered reports whether the run must visit every node in document order,
// on the leader of an empty frontier: to stream marked XML, or to record a
// KeepStates run's states over a tree (storage.DB.InMemory), where the
// states are kept in the Result instead of a state file.
func (r *diskBatch) ordered(db *storage.DB) bool {
	return r.scalar.MarkTo != nil || r.keepsStates(db)
}

func (r *diskBatch) keepsStates(db *storage.DB) bool {
	return r.scalar.KeepStateFile && db.InMemory()
}

// width is the run's initial state width: the widest any member's engine
// asks for. A state file somebody else reads keeps the documented 4-byte
// ids.
func (r *diskBatch) width() int {
	if r.scalar.StatePath != "" || r.scalar.KeepStateFile {
		return stateWide
	}
	w := stateByte
	for _, e := range r.engines {
		w = max(w, stateWidthFor(e.BUStateCount()))
	}
	return w
}

// plan is the one prune gate of the disk runs, scalar and batch. Seeking
// past extents the static analysis proves irrelevant to every member is
// sound only without aux input (aux bits vary per node), without marked
// output (every node must be emitted), and without an external state-file
// contract (the pruned state file has holes where extents were skipped);
// below PruneMinNodes it buys nothing. ix is the index the run's frontier
// was cut from, or nil when it has none: the planner then loads the index
// itself, and failing to costs the run its plan, not its answer.
func (r *diskBatch) plan(ctx context.Context, db *storage.DB, ix *storage.SubtreeIndex) *PrunePlan {
	if r.opts.NoPrune || r.opts.AuxIn != "" || r.scalar.MarkTo != nil || r.scalar.KeepStateFile || r.scalar.StatePath != "" || db.N < PruneMinNodes {
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
// the leader's glue scan skips the remaining pruned holes. Leader and
// workers run the same two window kernels (diskkernel.go) over storage's
// window passes, each stepping every lane; width is the attempt's
// state-file width, and a state id that outgrows it ends the attempt with
// errStateWidth.
func (r *diskBatch) runDiskChunked(ctx context.Context, db *storage.DB, workers int, tasks []storage.Extent, width int, plan *PrunePlan) ([]*Result, Stats, *DiskStats, error) {
	var agg Stats
	var planExts []storage.Extent
	if plan != nil {
		planExts = plan.Extents
	}
	tasks, inner, outer := splitPrune(tasks, planExts)
	leaderSkip, taskOf := mergeSkipLists(tasks, outer)
	if r.ordered(db) && len(leaderSkip) > 0 {
		return nil, agg, nil, errors.New("core: an ordered run needs the leader to visit every node")
	}
	workers = min(workers, len(tasks))

	files := &diskFiles{
		n:     db.N,
		w:     width,
		lanes: r.lanes,
		inW:   int(storage.MaskStride(r.opts.AuxInStride)),
		outW:  int(storage.MaskStride(r.opts.AuxOutStride)),
	}
	subs := make([]StateID, len(r.lanes))
	sels := make([]*Result, len(r.lanes))
	for li := range r.lanes {
		subs[li] = r.lanes[li].sub(plan)
		sels[li] = newSelections(r.lanes[li].nq, db.N)
	}

	if r.opts.AuxIn != "" {
		auxF, err := db.OpenMasks(r.opts.AuxIn, r.opts.AuxInStride)
		if err != nil {
			return nil, agg, nil, err
		}
		defer auxF.Close()
		files.auxF = auxF
	}

	stateF, statePath, err := createStateFile(db, r.scalar, int64(len(r.lanes))*db.N*int64(width))
	if err != nil {
		return nil, agg, nil, err
	}
	files.stateF = stateF
	keepFile := r.scalar.KeepStateFile && !db.InMemory()
	succeeded := false
	defer func() {
		stateF.Close()
		if !keepFile || !succeeded {
			db.RemoveScratch(statePath)
		}
	}()

	// Per-worker step caches, one per lane, reused across both phases.
	caches := make([][]*StepCache, workers)
	for i := range caches {
		caches[i] = r.newCaches()
	}
	leaderCaches := r.newCaches()

	// Phase 1: workers fold their chunks bottom-up — each streaming its
	// own byte range backwards and pwriting its stretch of every lane's
	// region of the state file — then the leader folds the glue, consuming
	// chunk root states.
	start := time.Now()
	rootStates := make([][]StateID, len(tasks))
	var statsMu sync.Mutex
	var phase1 storage.ScanStats // guarded by: statsMu
	err = runPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		k := files.newFold(caches[worker])
		err := db.BackwardWindows(ctx, x.Root, x.End(), inner[i], &k.st, func(sub storage.Extent) error {
			k.hole(sub, subs, true)
			return nil
		}, k.foldWindow)
		if err == nil {
			rootStates[i], err = k.finish()
		}
		if err != nil {
			return chunkErr(x, err)
		}
		statsMu.Lock()
		phase1.Merge(k.st)
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, agg, nil, err
	}

	// Leader glue scan: reverse preorder over everything outside the
	// chunks, with each chunk standing in as one already-folded subtree
	// and each leader-level pruned extent as the substitute states.
	fold := files.newFold(leaderCaches)
	mi := len(leaderSkip) - 1
	err = db.BackwardWindows(ctx, 0, db.N, leaderSkip, &fold.st, func(x storage.Extent) error {
		if ti := taskOf[mi]; ti < 0 {
			fold.hole(x, subs, true)
		} else {
			fold.hole(x, rootStates[ti], false)
		}
		mi--
		return nil
	}, fold.foldWindow)
	if err != nil {
		return nil, agg, nil, err
	}
	rootState, err := fold.finish()
	if err != nil {
		return nil, agg, nil, err
	}
	ds := &DiskStats{Phase1: fold.st}
	ds.Phase1.Merge(phase1)
	ds.StateBytes = ds.Phase1.Bytes / storage.NodeSize * int64(width*len(r.lanes))
	agg.Phase1Time = time.Since(start)

	// Phase 2, leader first: forward over the glue, assigning each chunk
	// root its top-down entry states.
	start = time.Now()
	if r.opts.AuxOut != "" {
		auxOutF, err := db.CreateScratch(r.opts.AuxOut, db.N*int64(files.outW))
		if err != nil {
			return nil, agg, nil, err
		}
		defer func() {
			auxOutF.Close()
			if !succeeded {
				// A failed or cancelled run must not leave a partial
				// sidecar behind for a later pass to trust.
				db.RemoveScratch(r.opts.AuxOut)
			}
		}()
		files.auxOutF = auxOutF
	}
	rootTD := make([]StateID, len(r.lanes))
	for li, c := range leaderCaches {
		rootTD[li] = c.RootTrueSet(rootState[li])
	}
	scan := files.newScan(leaderCaches, storage.Extent{Size: db.N}, rootState, rootTD)
	for li := range scan.lanes {
		scan.lanes[li].sel = sels[li]
	}
	var emitter *storage.XMLEmitter
	if r.scalar.MarkTo != nil {
		emitter = storage.NewXMLEmitter(r.scalar.MarkTo, db.Names)
	}
	var buStates, tdStates []StateID
	if r.keepsStates(db) {
		buStates, tdStates = make([]StateID, db.N), make([]StateID, db.N)
	}
	if emitter != nil || buStates != nil {
		markBit := uint64(1) << uint(r.scalar.MarkQuery)
		scan.visit = func(v int64, rec uint16, mask uint64, bu, td StateID) error {
			if buStates != nil {
				buStates[v], tdStates[v] = bu, td
			}
			if emitter == nil {
				return nil
			}
			return emitter.Node(v, storage.DecodeRecord(rec), mask&markBit != 0)
		}
	}
	tdRoots := make([][]StateID, len(tasks))
	mi = 0
	err = db.ForwardWindows(ctx, 0, db.N, leaderSkip, &scan.st, func(x storage.Extent) (err error) {
		ti := taskOf[mi]
		mi++
		if ti >= 0 {
			if tdRoots[ti], err = scan.entryStates(x, rootStates[ti]); err != nil {
				return err
			}
		}
		return scan.hole(x, ti < 0)
	}, scan.scanWindow)
	if err == nil {
		err = scan.finish()
	}
	if err != nil {
		return nil, agg, nil, err
	}

	// Phase 2, workers: descend into the chunks from their entry states,
	// accumulating marks in private per-chunk bitsets merged under the
	// selections' locks.
	phase2 := scan.st
	err = runPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		k := files.newScan(caches[worker], x, rootStates[i], tdRoots[i])
		k.w0 = x.Root / 64
		for li := range k.lanes {
			local := make([][]uint64, r.lanes[li].nq)
			for qi := range local {
				local[qi] = make([]uint64, (x.End()-1)/64-k.w0+1)
			}
			k.lanes[li].local = local
		}
		err := db.ForwardWindows(ctx, x.Root, x.End(), inner[i], &k.st, func(sub storage.Extent) error {
			return k.hole(sub, true)
		}, k.scanWindow)
		if err == nil {
			err = k.finish()
		}
		if err != nil {
			return chunkErr(x, err)
		}
		for li, l := range k.lanes {
			for qi := range l.local {
				sels[li].MergeWords(qi, k.w0, l.local[qi])
			}
		}
		statsMu.Lock()
		phase2.Merge(k.st)
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, agg, nil, err
	}
	if files.auxOutF != nil {
		if err := files.auxOutF.Close(); err != nil {
			return nil, agg, nil, err
		}
	}
	if emitter != nil {
		if err := emitter.Finish(); err != nil {
			return nil, agg, nil, err
		}
	}
	ds.Phase2 = phase2
	agg.Phase2Time = time.Since(start)

	res := make([]*Result, len(r.members))
	for li, l := range r.lanes {
		for j, m := range l.members {
			res[m] = sels[li].member(r.members[m].E.c.Prog, l.offs[j])
		}
	}
	if keepFile {
		res[0].StateFile = statePath
	}
	res[0].BUStateOf, res[0].TDStateOf = buStates, tdStates
	// The stale-index and state-width retries re-enter this function: only
	// the attempt that succeeds counts.
	creditNodes(r.engines, r.opts.Run, db.N, plan)
	succeeded = true
	return res, agg, ds, nil
}

// newCaches returns a fresh step cache per lane.
func (r *diskBatch) newCaches() []*StepCache {
	cs := make([]*StepCache, len(r.lanes))
	for li, l := range r.lanes {
		cs[li] = newStepCache(l.st, l.names)
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

// runPool fans n task indices out over a worker pool, stopping at the
// first error or when ctx is cancelled (in which case it reports
// ctx.Err() unless a task failed first). run receives the worker id so
// callers can give each goroutine private caches.
func runPool(ctx context.Context, workers, n int, run func(worker, i int) error) error {
	if n == 0 {
		return ctx.Err() // nothing to fan out: an empty frontier
	}
	if workers > n {
		workers = n
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range ch {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop || ctx.Err() != nil {
					continue
				}
				if err := run(worker, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// runWriter buffers WriteAt output that arrives in ascending runs with
// occasional jumps (pruned holes, the leader's scattered glue writes):
// contiguous bytes collect in one buffer, and a jump — or a full buffer —
// writes it out at the run's offset. Errors surface at flush.
type runWriter struct {
	f     io.WriterAt
	buf   []byte // the current run's bytes not yet written
	start int64  // file offset of buf[0]
	err   error
}

const runWriterBuf = 1 << 16

// at returns the n bytes at file offset off for the caller to fill in
// place: per-node masks are encoded straight into the buffer, with no
// temporary that would escape through an io.Writer.
func (rw *runWriter) at(off int64, n int) []byte {
	if off != rw.start+int64(len(rw.buf)) || len(rw.buf)+n > cap(rw.buf) {
		rw.flush()
		if cap(rw.buf) < n {
			rw.buf = make([]byte, 0, max(n, runWriterBuf))
		}
		rw.start = off
	}
	rw.buf = rw.buf[:len(rw.buf)+n]
	return rw.buf[len(rw.buf)-n:]
}

// zeros writes n zero bytes at offset off: the aux-mask slots of a pruned
// extent (none of its nodes is ever selected, and prunable passes have no
// aux input to propagate).
func (rw *runWriter) zeros(off, n int64) {
	for n > 0 {
		c := min(n, runWriterBuf)
		clear(rw.at(off, int(c)))
		off += c
		n -= c
	}
}

func (rw *runWriter) flush() error {
	if len(rw.buf) > 0 && rw.err == nil {
		_, rw.err = rw.f.WriteAt(rw.buf, rw.start)
	}
	rw.buf = rw.buf[:0]
	return rw.err
}
