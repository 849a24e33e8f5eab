package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"arb/internal/storage"
	"arb/internal/tree"
)

// Batch evaluation runs N compiled programs over one document during a
// single pair of linear scans. The scans are query-independent I/O — the
// paper's cost model is dominated by them — so a server fielding many
// concurrent queries amortises the passes across the whole workload: at
// every scan position each member engine takes its own transition, the
// phase-1 states of all members stream to one widened state file
// (stateWidth bytes per member per node), and auxiliary predicate masks
// travel in one widened sidecar with a slot per member. Results are
// bit-identical to running each member alone: the decomposition only
// shares the iteration, never the automata. Each member steps its own
// StepCache — the same dense tables a scalar run steps; what a batch of
// one pays over a scalar run is the per-member state vectors and the
// width-switching state codec (BenchmarkRunDiskBatchOfOne measures it).

// BatchMember is one query's engine inside a batch run, plus the wiring
// of its auxiliary predicate masks (the multi-pass XPath mechanism).
type BatchMember struct {
	E *Engine

	// Aux supplies the member's auxiliary mask for in-memory runs; nil
	// means no auxiliary predicates.
	Aux func(v tree.NodeID) uint16

	// AuxInSlot is the member's uint16 slot in the AuxIn sidecar of disk
	// runs; negative means no aux input.
	AuxInSlot int
	// AuxOutSlot, when non-negative, makes phase 2 write the member's
	// updated mask — the input mask ORed with bit AuxOutBit for every
	// node selected by query predicate AuxOutQuery — to that slot of the
	// AuxOut sidecar.
	AuxOutSlot  int
	AuxOutBit   uint8
	AuxOutQuery int
}

// DiskBatchOpts configures a secondary-storage batch run. The sidecar
// paths name widened aux-mask files (storage.MaskStride bytes per node);
// empty paths mean no aux input/output.
type DiskBatchOpts struct {
	AuxIn        string
	AuxInStride  int
	AuxOut       string
	AuxOutStride int

	// NoPrune disables selectivity-aware scan pruning for this round. A
	// batch round prunes an extent only when every member's analysis
	// proves it irrelevant (the scans are shared); rounds with aux input
	// never prune.
	NoPrune bool

	// Run, when non-nil, receives the round's exact statistics across
	// all members — deterministic per-run attribution even when batch
	// executions overlap on shared engines.
	Run *RunStats
}

// TreeBatchOpts configures an in-memory batch pass.
type TreeBatchOpts struct {
	// Index optionally supplies a subtree index with label signatures
	// over the tree (storage.BuildTreeIndex), enabling selectivity-aware
	// pruning: an extent is skipped only when every member's analysis
	// proves it irrelevant. Members with Aux set disable pruning for the
	// whole pass.
	Index *storage.SubtreeIndex
	// NoPrune disables pruning even when Index is available.
	NoPrune bool
	// Run, when non-nil, receives the pass's exact statistics across all
	// members — deterministic per-run attribution even when batch
	// executions overlap on shared engines.
	Run *RunStats
}

// RunBatchTree evaluates every member's program over an in-memory tree in
// one shared pair of passes: phase 1 walks the tree bottom-up once,
// stepping all member automata per node; phase 2 top-down likewise. The
// returned results (one per member, in member order) are identical to
// running each member's engine alone. The aggregate Stats carries the
// shared phase wall times; per-engine lazy-transition work lands in each
// member engine's own Stats as usual. Cancelling ctx aborts the pass in
// progress with ctx.Err().
func RunBatchTree(ctx context.Context, t *tree.Tree, members []BatchMember, topts TreeBatchOpts) ([]*Result, Stats, error) {
	var agg Stats
	n := t.Len()
	if n == 0 {
		return nil, agg, errors.New("core: empty tree")
	}
	nm := len(members)
	if nm == 0 {
		return nil, agg, errors.New("core: empty batch")
	}
	cancel := storage.NewCanceller(ctx)
	res := make([]*Result, nm)
	caches := make([]*StepCache, nm)
	prunable := !topts.NoPrune
	engines := make([]*Engine, nm)
	for m, bm := range members {
		res[m] = NewResult(bm.E.c.Prog, int64(n))
		bm.E.AddNodes(int64(n))
		topts.Run.AddNodes(int64(n))
		caches[m] = bm.E.ShareTo(topts.Run).NewStepCache()
		engines[m] = bm.E
		if bm.Aux != nil {
			prunable = false
		}
	}
	var prune *PrunePlan
	if prunable {
		prune = PlanPrune(engines, topts.Index, int64(n))
	}
	var exts []storage.Extent
	if prune != nil {
		exts = prune.Extents
		for _, e := range engines {
			e.AddPrunedNodes(prune.Nodes)
			topts.Run.AddPrunedNodes(prune.Nodes)
		}
	}

	// Phase 1: one bottom-up pass, all members per node.
	start := time.Now()
	bu := make([]StateID, n*nm)
	pe := len(exts) - 1
	for v := n - 1; v >= 0; v-- {
		if err := cancel.Step(); err != nil {
			return nil, agg, err
		}
		if pe >= 0 && int64(v) == exts[pe].End()-1 {
			x := exts[pe]
			pe--
			for m := range members {
				bu[int(x.Root)*nm+m] = prune.Sub(m)
			}
			v = int(x.Root) // the loop decrement steps past the extent
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		rec := storage.Record{
			Label:     uint16(t.Label(tree.NodeID(v))),
			HasFirst:  first != tree.None,
			HasSecond: second != tree.None,
		}.Encode()
		root := v == 0
		for m, bm := range members {
			left, right := NoState, NoState
			if first != tree.None {
				left = bu[int(first)*nm+m]
			}
			if second != tree.None {
				right = bu[int(second)*nm+m]
			}
			var extra uint16
			if bm.Aux != nil {
				extra = bm.Aux(tree.NodeID(v))
			}
			c := caches[m]
			bu[v*nm+m] = c.BUStep(left, right, c.SigID(rec, root, extra))
		}
	}
	agg.Phase1Time = time.Since(start)

	// Phase 2: one top-down pass.
	start = time.Now()
	td := make([]StateID, n*nm)
	for m := range members {
		td[m] = caches[m].RootTrueSet(bu[m])
	}
	pi := 0
	for v := 0; v < n; v++ {
		if err := cancel.Step(); err != nil {
			return nil, agg, err
		}
		if pi < len(exts) && int64(v) == exts[pi].Root {
			v = int(exts[pi].End()) - 1 // the loop increment steps past
			pi++
			continue
		}
		first, second := t.First(tree.NodeID(v)), t.Second(tree.NodeID(v))
		for m := range members {
			c := caches[m]
			tdv := td[v*nm+m]
			if mask := c.QueryMask(tdv); mask != 0 {
				res[m].MarkMask(mask, int64(v))
			}
			if first != tree.None {
				td[int(first)*nm+m] = c.TDStep(tdv, bu[int(first)*nm+m], 1)
			}
			if second != tree.None {
				td[int(second)*nm+m] = c.TDStep(tdv, bu[int(second)*nm+m], 2)
			}
		}
	}
	agg.Phase2Time = time.Since(start)
	return res, agg, nil
}

// Widened state file: per node, one stateWidth-byte big-endian id per
// member, in member order. The state file is the dominant temporary I/O
// of a big batch, so runs start with the narrowest width the members'
// automata currently fit (typical programs intern a few dozen bottom-up
// states — one byte) and restart wider in the rare event that lazy
// construction outgrows it mid-run.
const (
	stateByte   = 1
	stateNarrow = 2
	stateWide   = 4
)

var errStateWidth = errors.New("core: bottom-up state id exceeds the narrow on-disk width")

func putState(b []byte, width int, id StateID) error {
	switch width {
	case stateByte:
		if id >= stateByteIDs {
			return errStateWidth
		}
		b[0] = byte(id)
	case stateNarrow:
		if uint32(id) >= 1<<16 {
			return errStateWidth
		}
		binary.BigEndian.PutUint16(b, uint16(id))
	default:
		binary.BigEndian.PutUint32(b, uint32(id))
	}
	return nil
}

func getState(b []byte, width int) StateID {
	switch width {
	case stateByte:
		return StateID(b[0])
	case stateNarrow:
		return StateID(binary.BigEndian.Uint16(b))
	default:
		return StateID(binary.BigEndian.Uint32(b))
	}
}

// stateByteIDs is how many state ids the one-byte width holds. A variable
// only so the package tests can force a run to outgrow its width midway.
var stateByteIDs StateID = 1 << 8

// stateWidthFor picks a run's initial on-disk state width for an engine
// that has interned n bottom-up states so far, leaving headroom under each
// width's limit (a quarter of the one-byte range, 256 ids of the two-byte
// one) for states the run interns as it goes; a mid-run overflow restarts
// the run at stateWide.
func stateWidthFor(n int) int {
	switch {
	case n >= 1<<16-256:
		return stateWide
	case n >= int(stateByteIDs-stateByteIDs/4):
		return stateNarrow
	}
	return stateByte
}

// batchStateWidth is the widest width any member's engine asks for.
func batchStateWidth(members []BatchMember) int {
	width := stateByte
	for _, bm := range members {
		width = max(width, stateWidthFor(bm.E.BUStateCount()))
	}
	return width
}

// RunDiskBatch evaluates every member's program over a .arb database in
// secondary storage with exactly two linear scans of the data for the
// whole batch: phase 1 is one backward scan streaming every member's
// bottom-up state per node to one widened temporary state file; phase 2
// is one forward scan reading that file backwards and computing each
// member's true predicates. Auxiliary masks ride in widened sidecars with
// one slot per member (DiskBatchOpts), so multi-pass members chain their
// passes through shared scans too. Results are identical to running each
// member through RunDiskContext alone. It is RunDiskBatchParallel with one
// worker: the chunked batch driver run with an empty frontier. Cancelling
// ctx aborts the scan in progress; a failed or cancelled run removes the
// state file and any partially written AuxOut sidecar.
func RunDiskBatch(ctx context.Context, db *storage.DB, members []BatchMember, opts DiskBatchOpts) ([]*Result, Stats, *DiskStats, error) {
	return RunDiskBatchParallel(ctx, db, 1, members, opts)
}

// RunDiskBatchParallel is RunDiskBatch with a pool of workers streaming
// disjoint chunk byte ranges, preserving the aggregate two-linear-scans
// I/O bound exactly as RunDiskParallelContext does for one query: the
// database's subtree index cuts a frontier of chunks, each worker runs
// every member engine over its chunk through private dense caches backed
// by the members' shared automata, and the leader scans the glue.
// workers <= 0 uses GOMAXPROCS; small databases and single-worker
// requests run with an empty frontier, the leader scanning everything.
func RunDiskBatchParallel(ctx context.Context, db *storage.DB, workers int, members []BatchMember, opts DiskBatchOpts) (res []*Result, agg Stats, ds *DiskStats, err error) {
	if len(members) == 0 {
		return nil, agg, nil, errors.New("core: empty batch")
	}
	if db.N == 0 {
		return nil, agg, nil, errors.New("core: empty database")
	}
	engines := make([]*Engine, len(members))
	for m, bm := range members {
		if bm.E.names != db.Names {
			return nil, agg, nil, errors.New("core: engine name table does not match database")
		}
		engines[m] = bm.E
	}
	err = runOverFrontier(ctx, db, workers, false, func(workers int, idx *storage.SubtreeIndex, tasks []storage.Extent) error {
		// Only extents every member proves irrelevant can be skipped, since
		// the batch shares one scan pair.
		plan := planDiskPrune(ctx, db, idx, engines, DiskOpts{NoPrune: opts.NoPrune, AuxIn: opts.AuxIn})
		res, agg, ds, err = runDiskBatchChunked(ctx, db, workers, members, opts, tasks, batchStateWidth(members), plan)
		if errors.Is(err, errStateWidth) {
			res, agg, ds, err = runDiskBatchChunked(ctx, db, workers, members, opts, tasks, stateWide, plan)
		}
		return err
	})
	return res, agg, ds, err
}

// runDiskBatchChunked is one attempt at batch evaluation over a frontier
// cut — the one batch disk driver, sequential when the frontier is empty —
// pruning exactly as the single-query driver does: swallowed tasks never
// run, workers seek inside their chunks, the leader skips the remaining
// pruned holes.
func runDiskBatchChunked(ctx context.Context, db *storage.DB, workers int, members []BatchMember, opts DiskBatchOpts, tasks []storage.Extent, width int, plan *PrunePlan) ([]*Result, Stats, *DiskStats, error) {
	var agg Stats
	nm := len(members)
	stride := nm * width
	var planExts []storage.Extent
	if plan != nil {
		planExts = plan.Extents
	}
	tasks, inner, outer := SplitPrune(tasks, planExts)
	leaderSkip, taskOf := mergeSkipLists(tasks, outer)
	workers = min(workers, len(tasks))

	res := make([]*Result, nm)
	shared := make([]*SharedEngine, nm)
	for m, bm := range members {
		res[m] = NewResult(bm.E.c.Prog, db.N)
		shared[m] = bm.E.ShareTo(opts.Run)
	}
	ds := &DiskStats{}

	var auxF *os.File
	if opts.AuxIn != "" {
		var err error
		auxF, err = storage.OpenMaskFile(opts.AuxIn, db.N, opts.AuxInStride)
		if err != nil {
			return nil, agg, nil, err
		}
		defer auxF.Close()
	}

	stateF, err := os.CreateTemp(filepath.Dir(db.Base), filepath.Base(db.Base)+"-*.stb")
	if err != nil {
		return nil, agg, nil, err
	}
	statePath := stateF.Name()
	defer func() {
		stateF.Close()
		os.Remove(statePath)
	}()

	// Per-worker, per-member dense caches backed by the shared automata,
	// reused across both phases.
	caches := make([][]*StepCache, workers)
	for w := range caches {
		caches[w] = make([]*StepCache, nm)
		for m := range caches[w] {
			caches[w][m] = shared[m].NewStepCache()
		}
	}
	leader := make([]*StepCache, nm)
	for m := range leader {
		leader[m] = shared[m].NewStepCache()
	}

	buVec := func(cs []*StepCache, first, second *[]StateID, rec storage.Record, v int64, auxVec []byte, out []StateID, stateBuf []byte, werr *error) {
		recBits := rec.Encode()
		root := v == 0
		for m, bm := range members {
			left, right := NoState, NoState
			if first != nil {
				left = (*first)[m]
			}
			if second != nil {
				right = (*second)[m]
			}
			var extra uint16
			if auxVec != nil && bm.AuxInSlot >= 0 {
				extra = binary.BigEndian.Uint16(auxVec[bm.AuxInSlot*storage.MaskSize:])
			}
			c := cs[m]
			id := c.BUStep(left, right, c.SigID(recBits, root, extra))
			out[m] = id
			if err := putState(stateBuf[m*width:], width, id); err != nil && *werr == nil {
				*werr = err
			}
		}
	}

	// Phase 1: workers fold their chunks bottom-up, each writing its
	// slice of the widened state file at its own offset; then the leader
	// folds the glue, consuming chunk root vectors.
	start := time.Now()
	rootVecs := make([][]StateID, len(tasks))
	var statsMu sync.Mutex
	var phase1 storage.ScanStats // guarded by: statsMu
	err = RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		cs := caches[worker]
		sw := &runWriter{f: stateF}
		var auxBack *storage.BackwardReader
		if auxF != nil {
			var err error
			auxBack, err = storage.MaskBackward(auxF, x.Root, x.End(), opts.AuxInStride)
			if err != nil {
				return err
			}
			defer auxBack.Release()
		}
		var free [][]StateID
		var skipped int64
		var werr error
		rootVec, st, err := storage.FoldBottomUpRangeSkipping(ctx, db, x, inner[i],
			func(sub storage.Extent) ([]StateID, error) {
				skipped += sub.Size * storage.NodeSize
				return plan.SubVec(), nil
			},
			func(first, second *[]StateID, rec storage.Record, v int64) []StateID {
				out := takeVec(&free, first, second, nm)
				var auxVec []byte
				if auxBack != nil {
					b, err := auxBack.Next()
					if err != nil && werr == nil {
						werr = fmt.Errorf("core: reading aux file: %w", err)
					} else if err == nil {
						auxVec = b
					}
				}
				buVec(cs, first, second, rec, v, auxVec, out, sw.at((db.N-1-v)*int64(stride), stride), &werr)
				return out
			})
		if err != nil {
			return err
		}
		if werr == nil {
			werr = sw.flush()
		}
		if werr != nil {
			if errors.Is(werr, errStateWidth) {
				return werr
			}
			return fmt.Errorf("core: chunk [%d,%d): %w", x.Root, x.End(), werr)
		}
		rootVecs[i] = rootVec
		statsMu.Lock()
		phase1.Merge(storage.ScanStats{Bytes: st.Bytes, SkippedBytes: st.SkippedBytes + skipped, MaxStack: st.MaxStack, PhysicalBytes: st.PhysicalBytes})
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, agg, nil, err
	}

	// Leader glue scan, reverse preorder over everything outside the
	// chunks, with each chunk standing in as one already-folded subtree.
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
		auxBack, err = storage.MaskBackward(auxF, lo, hi, opts.AuxInStride)
		return err
	}
	mi := len(leaderSkip) - 1
	var leaderSkipped int64
	var free [][]StateID
	var werr error
	if err := openAuxGap(len(leaderSkip)); err != nil {
		return nil, agg, nil, err
	}
	rootVec, scan1, err := storage.FoldBottomUpSkipping(ctx, db, leaderSkip,
		func(x storage.Extent) ([]StateID, error) {
			if err := openAuxGap(mi); err != nil {
				return nil, err
			}
			ti := taskOf[mi]
			mi--
			if ti < 0 {
				leaderSkipped += x.Size * storage.NodeSize
				return plan.SubVec(), nil
			}
			// Hand the fold a copy: the original must survive for phase 2,
			// but the fold recycles child vectors freely.
			return append([]StateID(nil), rootVecs[ti]...), nil
		},
		func(first, second *[]StateID, rec storage.Record, v int64) []StateID {
			out := takeVec(&free, first, second, nm)
			var auxVec []byte
			if auxBack != nil {
				b, err := auxBack.Next()
				if err != nil && werr == nil {
					werr = fmt.Errorf("core: reading aux file: %w", err)
				} else if err == nil {
					auxVec = b
				}
			}
			buVec(leader, first, second, rec, v, auxVec, out, lw.at((db.N-1-v)*int64(stride), stride), &werr)
			return out
		})
	if err != nil {
		return nil, agg, nil, err
	}
	if werr == nil {
		werr = lw.flush()
	}
	if werr != nil {
		if errors.Is(werr, errStateWidth) {
			return nil, agg, nil, werr
		}
		return nil, agg, nil, fmt.Errorf("core: writing state file: %w", werr)
	}
	scan1.SkippedBytes += leaderSkipped
	scan1.Merge(phase1)
	ds.Phase1 = scan1
	ds.StateBytes = scan1.Bytes / storage.NodeSize * int64(stride)
	agg.Phase1Time = time.Since(start)

	// Phase 2, leader first: forward over the glue, assigning each chunk
	// root its top-down entry vector.
	start = time.Now()
	succeeded := false
	var auxOutF *os.File
	if opts.AuxOut != "" {
		auxOutF, err = os.Create(opts.AuxOut)
		if err != nil {
			return nil, agg, nil, err
		}
		defer func() {
			auxOutF.Close()
			if !succeeded {
				os.Remove(opts.AuxOut)
			}
		}()
	}
	strideOut := storage.MaskStride(opts.AuxOutStride)

	tdRoots := make([][]StateID, len(tasks))
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
	// leaderSkip[i-1] (that starts at node 0 for i == 0), switching gaps
	// once per skipped extent exactly as runDiskChunked's does.
	openGap := func(i int) (err error) {
		if stateBack != nil {
			stateBack.Release()
		}
		lo, hi := glue(leaderSkip, i, db.N)
		stateBack, err = storage.NewBackwardSectionReader(stateF, (db.N-hi)*int64(stride), (db.N-lo)*int64(stride), stride)
		if auxF != nil && hi > lo {
			auxFwd = storage.MaskForward(auxF, lo, hi, opts.AuxInStride)
		}
		return err
	}
	var arena [][]StateID
	atDepth := func(d int32) []StateID {
		for int(d) >= len(arena) {
			arena = append(arena, make([]StateID, nm))
		}
		return arena[d]
	}
	inVec := make([]byte, storage.MaskStride(opts.AuxInStride))
	if err := openGap(0); err != nil {
		return nil, agg, nil, err
	}
	scan2, err := storage.ScanTopDownSkipping(ctx, db, leaderSkip,
		func(x storage.Extent, parent *int32, k int) error {
			ti := taskOf[mi]
			mi++
			if err := openGap(mi); err != nil {
				return err
			}
			if ti < 0 {
				// Pruned hole: no entry vector, no state-file slice; only
				// the (all-zero) aux slots of its nodes.
				leaderSkipped2 += x.Size * storage.NodeSize
				if auxOutF != nil {
					auxOut.zeros(x.Root*strideOut, x.Size*strideOut)
				}
				return nil
			}
			entry := make([]StateID, nm)
			for m := range members {
				bu := rootVecs[ti][m]
				if parent == nil {
					if x.Root != 0 {
						return fmt.Errorf("core: parentless chunk at node %d", x.Root)
					}
					entry[m] = leader[m].RootTrueSet(bu)
				} else {
					entry[m] = leader[m].TDStep(arena[*parent][m], bu, k)
				}
			}
			tdRoots[ti] = entry
			return nil
		},
		func(v int64, rec storage.Record, parent *int32, k int) (int32, error) {
			b, err := stateBack.Next()
			if err != nil {
				return 0, fmt.Errorf("core: reading state file: %w", err)
			}
			var d int32
			var pvec []StateID
			if parent == nil {
				if v != 0 {
					return 0, fmt.Errorf("core: parentless node %d", v)
				}
			} else {
				d = *parent + 1
				pvec = arena[*parent]
			}
			tvec := atDepth(d)
			if auxFwd != nil {
				if _, err := io.ReadFull(auxFwd, inVec); err != nil {
					return 0, fmt.Errorf("core: reading aux file: %w", err)
				}
			}
			var outVec []byte
			if auxOutF != nil {
				outVec = auxOut.at(v*strideOut, int(strideOut))
				clear(outVec)
			}
			for m, bm := range members {
				bu := getState(b[m*width:], width)
				c := leader[m]
				var td StateID
				if parent == nil {
					if bu != rootVec[m] {
						return 0, fmt.Errorf("core: state file corrupt: root state %d, phase 1 computed %d", bu, rootVec[m])
					}
					td = c.RootTrueSet(bu)
				} else {
					td = c.TDStep(pvec[m], bu, k)
				}
				tvec[m] = td
				mask := c.QueryMask(td)
				if mask != 0 {
					// Workers are not running yet: marking needs no lock.
					res[m].MarkMask(mask, v)
				}
				if outVec != nil && bm.AuxOutSlot >= 0 {
					var cur uint16
					if auxFwd != nil && bm.AuxInSlot >= 0 {
						cur = binary.BigEndian.Uint16(inVec[bm.AuxInSlot*storage.MaskSize:])
					}
					if mask&(1<<uint(bm.AuxOutQuery)) != 0 {
						cur |= 1 << bm.AuxOutBit
					}
					binary.BigEndian.PutUint16(outVec[bm.AuxOutSlot*storage.MaskSize:], cur)
				}
			}
			return d, nil
		})
	if err != nil {
		return nil, agg, nil, err
	}

	// Phase 2, workers: descend into the chunks from their entry vectors,
	// accumulating marks in private per-chunk bitsets per member.
	err = RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		x := tasks[i]
		cs := caches[worker]
		stateBack, err := storage.NewBackwardSectionReader(stateF, (db.N-x.End())*int64(stride), (db.N-x.Root)*int64(stride), stride)
		if err != nil {
			return err
		}
		defer stateBack.Release()
		var auxFwd *bufio.Reader
		if auxF != nil {
			auxFwd = storage.MaskForward(auxF, x.Root, x.End(), opts.AuxInStride)
		}
		auxOut := &runWriter{f: auxOutF}
		w0 := x.Root / 64
		words := (x.End()-1)/64 - w0 + 1
		local := make([][][]uint64, nm)
		for m := range local {
			local[m] = make([][]uint64, len(res[m].queries))
			for qi := range local[m] {
				local[m][qi] = make([]uint64, words)
			}
		}
		var arena [][]StateID
		atDepth := func(d int32) []StateID {
			for int(d) >= len(arena) {
				arena = append(arena, make([]StateID, nm))
			}
			return arena[d]
		}
		inVec := make([]byte, storage.MaskStride(opts.AuxInStride))
		var skipped int64
		st, err := storage.ScanTopDownRangeSkipping(ctx, db, x, inner[i], func(sub storage.Extent, parent *int32, k int) error {
			if err := stateBack.Skip(sub.Size); err != nil {
				return err
			}
			skipped += sub.Size * storage.NodeSize
			if auxOutF != nil {
				auxOut.zeros(sub.Root*strideOut, sub.Size*strideOut)
			}
			return nil
		}, func(v int64, rec storage.Record, parent *int32, k int) (int32, error) {
			b, err := stateBack.Next()
			if err != nil {
				return 0, fmt.Errorf("core: reading state file: %w", err)
			}
			var d int32
			var pvec []StateID
			if parent != nil {
				d = *parent + 1
				pvec = arena[*parent]
			}
			tvec := atDepth(d)
			if auxFwd != nil {
				if _, err := io.ReadFull(auxFwd, inVec); err != nil {
					return 0, fmt.Errorf("core: reading aux file: %w", err)
				}
			}
			var outVec []byte
			if auxOutF != nil {
				outVec = auxOut.at(v*strideOut, int(strideOut))
				clear(outVec)
			}
			for m, bm := range members {
				bu := getState(b[m*width:], width)
				c := cs[m]
				var td StateID
				if parent == nil {
					// Chunk root: phase 1 of this very chunk computed its
					// state, so a mismatch means the file changed under us.
					if bu != rootVecs[i][m] {
						return 0, fmt.Errorf("core: state file corrupt: chunk root state %d, phase 1 computed %d", bu, rootVecs[i][m])
					}
					td = tdRoots[i][m]
				} else {
					td = c.TDStep(pvec[m], bu, k)
				}
				tvec[m] = td
				mask := c.QueryMask(td)
				for mm, qi := mask, 0; mm != 0; qi++ {
					if mm&1 != 0 {
						local[m][qi][v/64-w0] |= 1 << uint(v%64)
					}
					mm >>= 1
				}
				if outVec != nil && bm.AuxOutSlot >= 0 {
					var cur uint16
					if auxFwd != nil && bm.AuxInSlot >= 0 {
						cur = binary.BigEndian.Uint16(inVec[bm.AuxInSlot*storage.MaskSize:])
					}
					if mask&(1<<uint(bm.AuxOutQuery)) != 0 {
						cur |= 1 << bm.AuxOutBit
					}
					binary.BigEndian.PutUint16(outVec[bm.AuxOutSlot*storage.MaskSize:], cur)
				}
			}
			return d, nil
		})
		if err != nil {
			return err
		}
		if err := auxOut.flush(); err != nil {
			return err
		}
		for m := range local {
			for qi := range local[m] {
				res[m].MergeWords(qi, w0, local[m][qi])
			}
		}
		statsMu.Lock()
		scan2.Merge(storage.ScanStats{Bytes: st.Bytes, SkippedBytes: st.SkippedBytes + skipped, MaxStack: st.MaxStack, PhysicalBytes: st.PhysicalBytes})
		statsMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, agg, nil, err
	}
	if werr := auxOut.flush(); werr != nil {
		return nil, agg, nil, werr
	}
	if auxOutF != nil {
		if err := auxOutF.Close(); err != nil {
			return nil, agg, nil, err
		}
	}
	scan2.SkippedBytes += leaderSkipped2
	ds.Phase2 = scan2
	agg.Phase2Time = time.Since(start)
	// Count node visits and prune savings only on success: a narrow-width
	// restart re-enters this function and must not double-count the aborted
	// attempt.
	for _, bm := range members {
		bm.E.AddNodes(db.N)
		opts.Run.AddNodes(db.N)
		if plan != nil {
			bm.E.AddPrunedNodes(plan.Nodes)
			opts.Run.AddPrunedNodes(plan.Nodes)
		}
	}
	succeeded = true
	return res, agg, ds, nil
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

// takeVec hands the bottom-up fold an output vector, recycling popped
// child vectors so allocation stays bounded by the scan stack depth.
func takeVec(free *[][]StateID, first, second *[]StateID, nm int) []StateID {
	switch {
	case first != nil:
		if second != nil {
			*free = append(*free, *second)
		}
		return *first
	case second != nil:
		return *second
	default:
		if k := len(*free); k > 0 {
			out := (*free)[k-1]
			*free = (*free)[:k-1]
			return out
		}
		return make([]StateID, nm)
	}
}
