package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
		res, ds, err = e.runDiskChunked(ctx, db, workers, opts, tasks, plan)
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
// skips the remaining pruned holes.
func (e *Engine) runDiskChunked(ctx context.Context, db *storage.DB, workers int, opts DiskOpts, tasks []storage.Extent, plan *PrunePlan) (*Result, *DiskStats, error) {
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
	ds := &DiskStats{StateBytes: db.N * stateIDSize}
	e.AddNodes(db.N)
	opts.Run.AddNodes(db.N)
	s := e.ShareTo(opts.Run)

	var err error
	var auxF *os.File
	if opts.AuxIn != "" {
		auxF, err = os.Open(opts.AuxIn)
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
	}

	stateF, statePath, err := createStateFile(db, opts)
	if err != nil {
		return nil, nil, err
	}
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
	// own byte range backwards and pwriting its slice of the state file —
	// then the leader folds the glue, consuming chunk root states.
	start := time.Now()
	rootStates := make([]StateID, len(tasks))
	var statsMu sync.Mutex
	var phase1 storage.ScanStats // guarded by: statsMu
	err = RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		cache := caches[worker]
		// Absolute reverse-preorder offsets; in-chunk pruned extents are
		// holes the run-batched writer jumps over.
		sw := &runWriter{f: stateF}
		var auxBack *storage.BackwardReader
		if auxF != nil {
			var err error
			auxBack, err = storage.NewBackwardSectionReader(auxF, x.Root*auxMaskSize, x.End()*auxMaskSize, auxMaskSize)
			if err != nil {
				return err
			}
			defer auxBack.Release()
		}
		var skipped int64
		var werr error
		rootState, st, err := storage.FoldBottomUpRangeSkipping(ctx, db, x, inner[i],
			func(sub storage.Extent) (StateID, error) {
				skipped += sub.Size * storage.NodeSize
				return plan.Sub(0), nil
			},
			func(first, second *StateID, rec storage.Record, v int64) StateID {
				id := buStep(cache, first, second, rec, v, auxBack, &werr)
				binary.BigEndian.PutUint32(sw.at((db.N-1-v)*stateIDSize, stateIDSize), uint32(id))
				return id
			})
		if err != nil {
			return err
		}
		if werr == nil {
			werr = sw.flush()
		}
		if werr != nil {
			return fmt.Errorf("core: chunk [%d,%d): %w", x.Root, x.End(), werr)
		}
		rootStates[i] = rootState
		statsMu.Lock()
		// Nodes are counted once by the leader's skipping fold (a chunk
		// stands in as one already-folded subtree there), so workers merge
		// only their byte and stack columns.
		phase1.Merge(storage.ScanStats{Bytes: st.Bytes, SkippedBytes: st.SkippedBytes + skipped, MaxStack: st.MaxStack, PhysicalBytes: st.PhysicalBytes})
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Leader glue scan: reverse preorder over everything outside the
	// chunks, with each chunk standing in as one already-folded subtree
	// and each leader-level pruned extent as the substitute state.
	lw := &runWriter{f: stateF}
	var auxBack *storage.BackwardReader
	defer func() {
		if auxBack != nil {
			auxBack.Release()
		}
	}()
	// openAuxGap points auxBack at the aux masks of the glue that ends
	// where leaderSkip[i] starts (at N for i == len(leaderSkip)).
	openAuxGap := func(i int) (err error) {
		if auxF == nil {
			return nil
		}
		if auxBack != nil {
			auxBack.Release()
		}
		lo, hi := glue(leaderSkip, i, db.N)
		auxBack, err = storage.NewBackwardSectionReader(auxF, lo*auxMaskSize, hi*auxMaskSize, auxMaskSize)
		return err
	}
	mi := len(leaderSkip) - 1
	var leaderSkipped int64
	var werr error
	if err := openAuxGap(len(leaderSkip)); err != nil {
		return nil, nil, err
	}
	rootState, scan1, err := storage.FoldBottomUpSkipping(ctx, db, leaderSkip,
		func(x storage.Extent) (StateID, error) {
			if err := openAuxGap(mi); err != nil {
				return NoState, err
			}
			ti := taskOf[mi]
			mi--
			if ti < 0 {
				leaderSkipped += x.Size * storage.NodeSize
				return plan.Sub(0), nil
			}
			return rootStates[ti], nil
		},
		func(first, second *StateID, rec storage.Record, v int64) StateID {
			id := buStep(leaderCache, first, second, rec, v, auxBack, &werr)
			binary.BigEndian.PutUint32(lw.at((db.N-1-v)*stateIDSize, stateIDSize), uint32(id))
			return id
		})
	if err != nil {
		return nil, nil, err
	}
	if werr == nil {
		werr = lw.flush()
	}
	if werr != nil {
		return nil, nil, fmt.Errorf("core: writing state file: %w", werr)
	}
	scan1.SkippedBytes += leaderSkipped
	scan1.Merge(phase1)
	ds.Phase1 = scan1
	phase1Time := time.Since(start)

	// Phase 2, leader first: forward over the glue, reading the state
	// file backwards per gap (which yields the glue's phase-1 states in
	// preorder), assigning each chunk root its top-down entry state.
	start = time.Now()
	var auxOutF *os.File
	if opts.AuxOut != "" {
		auxOutF, err = os.Create(opts.AuxOut)
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
	}
	outBit := uint16(1) << opts.AuxOutBit
	queryBit := uint64(1) << uint(opts.AuxOutQuery)

	var emitter *storage.XMLEmitter
	markBit := uint64(1) << uint(opts.MarkQuery)
	if opts.MarkTo != nil {
		emitter = storage.NewXMLEmitter(opts.MarkTo, db.Names)
	}

	tdRoots := make([]StateID, len(tasks))
	mi = 0
	var leaderSkipped2 int64
	var stateBack *storage.BackwardReader
	defer func() {
		if stateBack != nil {
			stateBack.Release()
		}
	}()
	var auxFwd *bufio.Reader
	auxOut := &runWriter{f: auxOutF}
	// openGap points the leader's readers at the glue that follows
	// leaderSkip[i-1] (that starts at node 0 for i == 0): its slice of the
	// state file — exactly the bytes phase 1 wrote for it — and of the aux
	// file. The scan switches gaps here, once per skipped extent, not by a
	// test on every node; where no glue follows, the state reader is an
	// empty one (and the aux reader the previous gap's, spent), so a scan
	// that lost its gap fails on io.EOF instead of reading another gap's
	// states.
	openGap := func(i int) (err error) {
		if stateBack != nil {
			stateBack.Release()
		}
		lo, hi := glue(leaderSkip, i, db.N)
		stateBack, err = storage.NewBackwardSectionReader(stateF, (db.N-hi)*stateIDSize, (db.N-lo)*stateIDSize, stateIDSize)
		if auxF != nil && hi > lo {
			auxFwd = bufio.NewReaderSize(io.NewSectionReader(auxF, lo*auxMaskSize, (hi-lo)*auxMaskSize), 1<<16)
		}
		return err
	}
	if err := openGap(0); err != nil {
		return nil, nil, err
	}
	scan2, err := storage.ScanTopDownSkipping(ctx, db, leaderSkip,
		func(x storage.Extent, parent *StateID, k int) error {
			ti := taskOf[mi]
			mi++
			if err := openGap(mi); err != nil {
				return err
			}
			if ti < 0 {
				// Pruned hole: provably selection-free, so there is no
				// entry state to compute and no state-file slice to read —
				// only the aux slots (zero: nothing selected, no input).
				leaderSkipped2 += x.Size * storage.NodeSize
				if auxOutF != nil {
					auxOut.zeros(x.Root*auxMaskSize, x.Size*auxMaskSize)
				}
				return nil
			}
			bu := rootStates[ti]
			var td StateID
			if parent == nil {
				if x.Root != 0 {
					return fmt.Errorf("core: parentless chunk at node %d", x.Root)
				}
				td = leaderCache.RootTrueSet(bu)
			} else {
				td = leaderCache.TDStep(*parent, bu, k)
			}
			tdRoots[ti] = td
			return nil
		},
		func(v int64, rec storage.Record, parent *StateID, k int) (StateID, error) {
			b, err := stateBack.Next()
			if err != nil {
				return NoState, fmt.Errorf("core: reading state file: %w", err)
			}
			bu := StateID(binary.BigEndian.Uint32(b))
			var td StateID
			if parent == nil {
				if v != 0 {
					return NoState, fmt.Errorf("core: parentless node %d", v)
				}
				if bu != rootState {
					return NoState, fmt.Errorf("core: state file corrupt: root state %d, phase 1 computed %d", bu, rootState)
				}
				td = leaderCache.RootTrueSet(bu)
			} else {
				td = leaderCache.TDStep(*parent, bu, k)
			}
			mask := leaderCache.QueryMask(td)
			if mask != 0 {
				// Workers are not running yet: marking needs no lock.
				res.MarkMask(mask, v)
			}
			if emitter != nil {
				if err := emitter.Node(v, rec, mask&markBit != 0); err != nil {
					return NoState, err
				}
			}
			if auxOutF != nil {
				var cur uint16
				if auxFwd != nil {
					if cur, err = nextMask(auxFwd); err != nil {
						return NoState, err
					}
				}
				if mask&queryBit != 0 {
					cur |= outBit
				}
				binary.BigEndian.PutUint16(auxOut.at(v*auxMaskSize, auxMaskSize), cur)
			}
			return td, nil
		})
	if err != nil {
		return nil, nil, err
	}

	// Phase 2, workers: descend into the chunks from their entry states,
	// reading each chunk's state-file slice backwards and accumulating
	// marks in private per-chunk bitsets merged under the result's lock.
	nq := len(res.queries)
	err = RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		cache := caches[worker]
		stateBack, err := storage.NewBackwardSectionReader(stateF, (db.N-x.End())*stateIDSize, (db.N-x.Root)*stateIDSize, stateIDSize)
		if err != nil {
			return err
		}
		defer stateBack.Release()
		var auxFwd *bufio.Reader
		if auxF != nil {
			auxFwd = bufio.NewReaderSize(io.NewSectionReader(auxF, x.Root*auxMaskSize, x.Size*auxMaskSize), 1<<16)
		}
		auxOut := &runWriter{f: auxOutF}
		w0 := x.Root / 64
		local := make([][]uint64, nq)
		words := (x.End()-1)/64 - w0 + 1
		for qi := range local {
			local[qi] = make([]uint64, words)
		}
		var skipped int64
		st, err := storage.ScanTopDownRangeSkipping(ctx, db, x, inner[i], func(sub storage.Extent, parent *StateID, k int) error {
			if err := stateBack.Skip(sub.Size); err != nil {
				return err
			}
			skipped += sub.Size * storage.NodeSize
			if auxOutF != nil {
				auxOut.zeros(sub.Root*auxMaskSize, sub.Size*auxMaskSize)
			}
			return nil
		}, func(v int64, rec storage.Record, parent *StateID, k int) (StateID, error) {
			b, err := stateBack.Next()
			if err != nil {
				return NoState, fmt.Errorf("core: reading state file: %w", err)
			}
			bu := StateID(binary.BigEndian.Uint32(b))
			var td StateID
			if parent == nil {
				// Chunk root: phase 1 of this very chunk computed its
				// state, so a mismatch means the file changed under us.
				if bu != rootStates[i] {
					return NoState, fmt.Errorf("core: state file corrupt: chunk root state %d, phase 1 computed %d", bu, rootStates[i])
				}
				td = tdRoots[i]
			} else {
				td = cache.TDStep(*parent, bu, k)
			}
			mask := cache.QueryMask(td)
			for m, qi := mask, 0; m != 0; qi++ {
				if m&1 != 0 {
					local[qi][v/64-w0] |= 1 << uint(v%64)
				}
				m >>= 1
			}
			if auxOutF != nil {
				var cur uint16
				if auxFwd != nil {
					if cur, err = nextMask(auxFwd); err != nil {
						return NoState, err
					}
				}
				if mask&queryBit != 0 {
					cur |= outBit
				}
				binary.BigEndian.PutUint16(auxOut.at(v*auxMaskSize, auxMaskSize), cur)
			}
			return td, nil
		})
		if err != nil {
			return err
		}
		if err := auxOut.flush(); err != nil {
			return err
		}
		for qi := range local {
			res.MergeWords(qi, w0, local[qi])
		}
		statsMu.Lock()
		scan2.Merge(storage.ScanStats{Bytes: st.Bytes, SkippedBytes: st.SkippedBytes + skipped, MaxStack: st.MaxStack, PhysicalBytes: st.PhysicalBytes})
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if werr := auxOut.flush(); werr != nil {
		return nil, nil, werr
	}
	if auxOutF != nil {
		if err := auxOutF.Close(); err != nil {
			return nil, nil, err
		}
	}
	if emitter != nil {
		if err := emitter.Finish(); err != nil {
			return nil, nil, err
		}
	}
	scan2.SkippedBytes += leaderSkipped2
	ds.Phase2 = scan2
	phase2 := time.Since(start)
	e.addPhaseTimes(phase1Time, phase2)
	opts.Run.AddPhaseTimes(phase1Time, phase2)
	// Count pruned nodes only on success: a failed or cancelled run saved
	// nothing, and the stale-index retry re-enters this function and must
	// not double-count the aborted attempt's plan.
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

// buStep performs one bottom-up transition from a scan record, optionally
// consuming one auxiliary mask from auxBack.
func buStep(cache *StepCache, first, second *StateID, rec storage.Record, v int64, auxBack *storage.BackwardReader, werr *error) StateID {
	left, right := NoState, NoState
	if first != nil {
		left = *first
	}
	if second != nil {
		right = *second
	}
	var extra uint16
	if auxBack != nil {
		b, err := auxBack.Next()
		if err != nil && *werr == nil {
			*werr = fmt.Errorf("core: reading aux file: %w", err)
		} else if err == nil {
			extra = binary.BigEndian.Uint16(b)
		}
	}
	return cache.BUStep(left, right, cache.SigID(rec.Encode(), v == 0, extra))
}

// glue returns the node range the leader scans itself between skip[i-1]
// and skip[i] — from node 0 for i == 0, up to n for i == len(skip). It is
// empty where two skipped extents are adjacent.
func glue(skip []storage.Extent, i int, n int64) (lo, hi int64) {
	hi = n
	if i > 0 {
		lo = skip[i-1].End()
	}
	if i < len(skip) {
		hi = skip[i].Root
	}
	return lo, hi
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
