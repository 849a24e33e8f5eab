package core

import (
	"context"
	"errors"
	"fmt"
	"os"
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
func (e *Engine) RunDiskParallelContext(ctx context.Context, db *storage.DB, workers int, opts DiskOpts) (res *Result, ds *DiskStats, err error) {
	if db.N == 0 {
		return nil, nil, errors.New("core: empty database")
	}
	if e.names != db.Names {
		// Label[..] tests are resolved against e.names; running against a
		// database with a different name table would silently misresolve.
		return nil, nil, errors.New("core: engine name table does not match database")
	}
	err = runOverFrontier(ctx, db, workers, opts.MarkTo != nil, func(workers int, idx *storage.SubtreeIndex, tasks []storage.Extent) error {
		plan := planDiskPrune(ctx, db, idx, []*Engine{e}, opts)
		// A state file somebody else reads keeps the documented 4-byte ids.
		width := stateWide
		if opts.StatePath == "" && !opts.KeepStateFile {
			width = stateWidthFor(e.BUStateCount())
		}
		res, ds, err = e.runDiskChunked(ctx, db, workers, opts, tasks, width, plan)
		if errors.Is(err, errStateWidth) {
			res, ds, err = e.runDiskChunked(ctx, db, workers, opts, tasks, stateWide, plan)
		}
		return err
	})
	return res, ds, err
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
// one scalar disk driver; runOverFrontier wraps it with the stale-index
// retry. With an empty frontier the leader's glue scan covers [0, N) and
// the run is the paper's sequential two-scan algorithm. When a prune plan
// is given, tasks swallowed by a pruned extent never run, workers seek
// past pruned extents inside their own chunks, and the leader's glue scan
// skips the remaining pruned holes. Leader and workers run the same two
// window kernels (diskkernel.go) over storage's window passes; width is
// the attempt's state-file width, and a state id that outgrows it ends the
// attempt with errStateWidth.
func (e *Engine) runDiskChunked(ctx context.Context, db *storage.DB, workers int, opts DiskOpts, tasks []storage.Extent, width int, plan *PrunePlan) (*Result, *DiskStats, error) {
	var planExts []storage.Extent
	if plan != nil {
		planExts = plan.Extents
	}
	tasks, inner, outer := SplitPrune(tasks, planExts)
	leaderSkip, taskOf := mergeSkipLists(tasks, outer)
	if opts.MarkTo != nil && len(leaderSkip) > 0 {
		return nil, nil, errors.New("core: marked output needs the leader to visit every node")
	}
	workers = min(workers, len(tasks))

	res := NewResult(e.c.Prog, db.N)
	s := e.ShareTo(opts.Run)
	files := &diskFiles{
		n:        db.N,
		w:        width,
		outBit:   uint16(1) << opts.AuxOutBit,
		queryBit: uint64(1) << uint(opts.AuxOutQuery),
	}

	if opts.AuxIn != "" {
		auxF, err := os.Open(opts.AuxIn)
		if err != nil {
			return nil, nil, err
		}
		defer auxF.Close()
		st, err := auxF.Stat()
		if err != nil {
			return nil, nil, err
		}
		if st.Size() != db.N*auxMaskSize {
			return nil, nil, fmt.Errorf("core: aux file %s has %d bytes for %d nodes", opts.AuxIn, st.Size(), db.N)
		}
		files.auxF = auxF
	}

	stateF, statePath, err := createStateFile(db, opts)
	if err != nil {
		return nil, nil, err
	}
	files.stateF = stateF
	succeeded := false
	defer func() {
		stateF.Close()
		if !opts.KeepStateFile || !succeeded {
			os.Remove(statePath)
		}
	}()

	// Per-worker step caches, reused across both phases.
	caches := make([]*StepCache, workers)
	for i := range caches {
		caches[i] = s.NewStepCache()
	}
	leaderCache := s.NewStepCache()

	// Phase 1: workers fold their chunks bottom-up — each streaming its
	// own byte range backwards and pwriting its stretch of the state file —
	// then the leader folds the glue, consuming chunk root states.
	start := time.Now()
	rootStates := make([]StateID, len(tasks))
	var statsMu sync.Mutex
	var phase1 storage.ScanStats // guarded by: statsMu
	err = RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		k := files.newFold(caches[worker])
		err := db.BackwardWindows(ctx, x.Root, x.End(), inner[i], &k.st, func(sub storage.Extent) error {
			k.hole(sub, plan.Sub(0), true)
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
		return nil, nil, err
	}

	// Leader glue scan: reverse preorder over everything outside the
	// chunks, with each chunk standing in as one already-folded subtree
	// and each leader-level pruned extent as the substitute state.
	fold := files.newFold(leaderCache)
	mi := len(leaderSkip) - 1
	err = db.BackwardWindows(ctx, 0, db.N, leaderSkip, &fold.st, func(x storage.Extent) error {
		if ti := taskOf[mi]; ti < 0 {
			fold.hole(x, plan.Sub(0), true)
		} else {
			fold.hole(x, rootStates[ti], false)
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
	ds.Phase1.Merge(phase1)
	ds.StateBytes = ds.Phase1.Bytes / storage.NodeSize * int64(width)
	phase1Time := time.Since(start)

	// Phase 2, leader first: forward over the glue, assigning each chunk
	// root its top-down entry state.
	start = time.Now()
	if opts.AuxOut != "" {
		auxOutF, err := os.Create(opts.AuxOut)
		if err != nil {
			return nil, nil, err
		}
		defer func() {
			auxOutF.Close()
			if !succeeded {
				// A failed or cancelled run must not leave a partial
				// sidecar behind for a later pass to trust.
				os.Remove(opts.AuxOut)
			}
		}()
		files.auxOutF = auxOutF
	}
	scan := files.newScan(leaderCache, storage.Extent{Size: db.N}, rootState, leaderCache.RootTrueSet(rootState))
	scan.res = res
	if opts.MarkTo != nil {
		scan.emitter = storage.NewXMLEmitter(opts.MarkTo, db.Names)
		scan.markBit = uint64(1) << uint(opts.MarkQuery)
	}
	tdRoots := make([]StateID, len(tasks))
	mi = 0
	err = db.ForwardWindows(ctx, 0, db.N, leaderSkip, &scan.st, func(x storage.Extent) (err error) {
		ti := taskOf[mi]
		mi++
		if ti >= 0 {
			if tdRoots[ti], err = scan.entryState(x, rootStates[ti]); err != nil {
				return err
			}
		}
		return scan.hole(x, ti < 0)
	}, scan.scanWindow)
	if err == nil {
		err = scan.finish()
	}
	if err != nil {
		return nil, nil, err
	}

	// Phase 2, workers: descend into the chunks from their entry states,
	// accumulating marks in private per-chunk bitsets merged under the
	// result's lock.
	phase2 := scan.st
	err = RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		k := files.newScan(caches[worker], x, rootStates[i], tdRoots[i])
		k.w0 = x.Root / 64
		k.local = make([][]uint64, len(res.queries))
		for qi := range k.local {
			k.local[qi] = make([]uint64, (x.End()-1)/64-k.w0+1)
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
		for qi := range k.local {
			res.MergeWords(qi, k.w0, k.local[qi])
		}
		statsMu.Lock()
		phase2.Merge(k.st)
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if files.auxOutF != nil {
		if err := files.auxOutF.Close(); err != nil {
			return nil, nil, err
		}
	}
	if scan.emitter != nil {
		if err := scan.emitter.Finish(); err != nil {
			return nil, nil, err
		}
	}
	ds.Phase2 = phase2
	phase2Time := time.Since(start)
	e.addPhaseTimes(phase1Time, phase2Time)
	opts.Run.AddPhaseTimes(phase1Time, phase2Time)
	// Count node visits and prune savings only on success: a failed or
	// cancelled run saved nothing, and the stale-index and state-width
	// retries re-enter this function and must not double-count the aborted
	// attempt.
	e.AddNodes(db.N)
	opts.Run.AddNodes(db.N)
	if plan != nil {
		e.AddPrunedNodes(plan.Nodes)
		opts.Run.AddPrunedNodes(plan.Nodes)
	}
	if opts.KeepStateFile {
		res.StateFile = statePath
	}
	succeeded = true
	return res, ds, nil
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

// RunPool fans n task indices out over a worker pool, stopping at the
// first error or when ctx is cancelled (in which case it reports
// ctx.Err() unless a task failed first). run receives the worker id so
// callers can give each goroutine private caches; it is shared with
// internal/parallel.
func RunPool(ctx context.Context, workers, n int, run func(worker, i int) error) error {
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
	f     *os.File
	buf   []byte // the current run's bytes not yet written
	start int64  // file offset of buf[0]
	err   error
}

const runWriterBuf = 1 << 16

// at returns the n bytes at file offset off for the caller to fill in
// place: per-node state ids and masks are encoded straight into the
// buffer, with no temporary that would escape through an io.Writer.
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
