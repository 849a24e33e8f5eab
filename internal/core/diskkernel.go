package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"arb/internal/storage"
)

// The window kernels are the two loops of the disk driver: phase 1 folds
// and phase 2 scans the raw record windows storage hands out, with the
// automaton step, the stack and the state-file codec in one loop body
// instead of behind a per-node callback. Each window is stepped once per
// lane (a scalar run is one lane of one member), every lane over the same
// decoded records with its own cache and stack. Every per-node byte outside
// the records is addressed by node index — the state of node v of the lane
// in state-file slot L sits at L·N·w + (N-1-v)·w (reverse preorder, the
// order phase 1 makes them in), its aux masks at v times the sidecars'
// vector width — so a window reads or writes its slice of each file at an
// offset computed from its first node, whatever holes the pass skips around
// it. A lane whose selections its bottom-up states decide (analysis.go) has
// no slot: phase 1 marks its nodes as it folds them, and phase 2 skips it.
// A forward attempt (every lane's bottom-up states decided by the records,
// analysis.go) has no state file at all: phase 2 alone runs, and takes each
// node's bottom-up state from its lane cache's record table instead.

// On-disk state widths. The state file is the dominant temporary I/O of a
// run, so runs start with the narrowest width their automata currently fit
// (typical programs intern a few dozen bottom-up states — one byte) and
// restart wide in the rare event that lazy construction (or a lane's
// product) outgrows it mid-run.
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

// diskFiles is what the kernels of one attempt share: the lanes, the
// scratch files (storage.ScratchFile: files on disk, buffers in RAM for a
// tree's record image), the attempt's state width and the lanes' selections.
type diskFiles struct {
	n       int64               // nodes in the database
	w       int                 // bytes per state id (stateByte, stateNarrow or stateWide)
	lanes   []lane              // the run's lanes, each with its state-file slot
	sels    []*Result           // per lane, what its members select
	stateF  storage.ScratchFile // phase 1 writes it, phase 2 reads it; nil when no lane has a slot, or forward
	forward bool                // no phase 1: phase 2 takes bottom-up states from the records
	auxF    storage.ScratchFile // input masks; nil without AuxIn
	auxOutF storage.ScratchFile // output masks; nil without AuxOut, written by phase 2
	inW     int                 // bytes per node of the aux-in sidecar
	outW    int                 // bytes per node of the aux-out sidecar
}

// stateOff is the state-file offset of the states in slot's region of the
// n nodes from first on; within that slice node first+i sits at (n-1-i)·w.
func (r *diskFiles) stateOff(slot int, first int64, n int) int64 {
	return (int64(slot)*r.n + r.n - first - int64(n)) * int64(r.w)
}

// laneMarks is where a kernel records one lane's selections: the lane's
// Result directly (the leader, whose scans never overlap a worker's) or
// private bitsets from word w0 on (a worker's chunk), which merge merges
// under the Result's lock.
type laneMarks struct {
	sel   *Result
	local [][]uint64
	w0    int64
}

// marks returns lane li's marks for a kernel over x: private ones for a
// worker's chunk, the Result itself for the leader.
func (r *diskFiles) marks(li int, x storage.Extent, worker bool) laneMarks {
	m := laneMarks{sel: r.sels[li]}
	if worker {
		m.w0 = x.Root / 64
		m.local = make([][]uint64, r.lanes[li].nq)
		for qi := range m.local {
			m.local[qi] = make([]uint64, (x.End()-1)/64-m.w0+1)
		}
	}
	return m
}

func (m *laneMarks) mark(mask uint64, v int64) {
	if m.local == nil {
		m.sel.MarkMask(mask, v)
		return
	}
	for qi := 0; mask != 0; qi++ {
		if mask&1 != 0 {
			m.local[qi][v/64-m.w0] |= 1 << uint(v%64)
		}
		mask >>= 1
	}
}

// merge hands a worker's private marks to the Result.
func (m *laneMarks) merge() {
	for qi := range m.local {
		m.sel.MergeWords(qi, m.w0, m.local[qi])
	}
}

// auxWindow reads the input masks of the n nodes from first on into buf.
func (r *diskFiles) auxWindow(buf []byte, first int64, n int) ([]byte, error) {
	if r.auxF == nil {
		return nil, nil
	}
	buf = buf[:n*r.inW]
	if _, err := r.auxF.ReadAt(buf, first*int64(r.inW)); err != nil {
		return nil, fmt.Errorf("core: reading aux file: %w", err)
	}
	return buf, nil
}

func (r *diskFiles) auxBuf() []byte {
	if r.auxF == nil {
		return nil
	}
	return make([]byte, storage.WindowNodes*r.inW)
}

// foldKernel is phase 1 over one region — a worker's chunk or the leader's
// glue: per lane the stack of subtree states and either a window's worth of
// buffer for the states it writes or, for a lane without a state-file slot,
// the marks its states decide; and one buffer for the aux masks every lane
// reads.
type foldKernel struct {
	*diskFiles
	lanes []foldLane
	aux   []byte
	st    storage.ScanStats
}

type foldLane struct {
	*lane
	cache  *StepCache
	states []byte
	marks  laneMarks // lanes without a slot only
	stack  []StateID
}

// newFold starts phase 1 over the region x, a worker's chunk or not, with
// one cache per lane.
func (r *diskFiles) newFold(caches []*StepCache, x storage.Extent, worker bool) *foldKernel {
	k := &foldKernel{diskFiles: r, aux: r.auxBuf()}
	for li, c := range caches {
		l := foldLane{lane: &r.lanes[li], cache: c}
		if l.slot >= 0 {
			l.states = make([]byte, storage.WindowNodes*r.w)
		} else {
			l.marks = r.marks(li, x, worker)
		}
		k.lanes = append(k.lanes, l)
	}
	return k
}

// foldWindow steps every lane's δA over one window of records.
func (k *foldKernel) foldWindow(first int64, recs []byte) error {
	n := len(recs) / storage.NodeSize
	aux, err := k.auxWindow(k.aux, first, n)
	if err != nil {
		return err
	}
	for li := range k.lanes {
		l := &k.lanes[li]
		if err := k.fold(l, first, recs, aux); err != nil {
			return err
		}
		if l.slot < 0 {
			continue
		}
		if _, err := k.stateF.WriteAt(l.states[:n*k.w], k.stateOff(l.slot, first, n)); err != nil {
			return fmt.Errorf("core: writing state file: %w", err)
		}
	}
	k.st.Nodes += int64(n)
	return nil
}

// fold steps one lane over the window, last node first, and writes each
// node's state to the lane's buffer — or, for a lane without a slot, marks
// the node with its state's one-scan verdict.
func (k *foldKernel) fold(l *foldLane, first int64, recs, aux []byte) error {
	n := len(recs) / storage.NodeSize
	w, inW := k.w, k.inW
	var out []byte
	if l.slot >= 0 {
		out = l.states[:n*w]
	}
	var in []byte
	if l.auxIn >= 0 {
		in = aux[l.auxIn:]
	}
	cache, stack, maxStack := l.cache, l.stack, k.st.MaxStack
	for i := n - 1; i >= 0; i-- {
		rec := binary.BigEndian.Uint16(recs[i*storage.NodeSize:])
		left, right := NoState, NoState
		if rec&storage.FlagFirst != 0 {
			if len(stack) == 0 {
				return fmt.Errorf("%w: missing first subtree at node %d", storage.ErrMalformed, first+int64(i))
			}
			left, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		if rec&storage.FlagSecond != 0 {
			if len(stack) == 0 {
				return fmt.Errorf("%w: missing second subtree at node %d", storage.ErrMalformed, first+int64(i))
			}
			right, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		var extra uint16
		if in != nil {
			extra = binary.BigEndian.Uint16(in[i*inW:])
		}
		// The table hits inline (see StepCache.sigHit); the calls are for
		// the root, aux bits and transitions not cached yet.
		sig := cache.sigHit(rec) - 1
		root := first == 0 && i == 0
		if sig < 0 || extra != 0 || root {
			sig = cache.SigID(rec, root, extra)
		}
		id := cache.buHit(left, right, sig) - 1
		if id < 0 {
			id = cache.BUStep(left, right, sig)
		}
		if out == nil {
			mask, ok := cache.verdictHit(id)
			if !ok || root {
				if mask, ok = cache.Verdict(id, root); !ok {
					return errTwoScans
				}
			}
			if mask != 0 {
				l.marks.mark(mask, first+int64(i))
			}
		} else if err := putState(out[(n-1-i)*w:], w, id); err != nil {
			return err
		}
		stack = append(stack, id)
		maxStack = max(maxStack, len(stack))
	}
	l.stack, k.st.MaxStack = stack, maxStack
	return nil
}

// hole stands states s (one per lane) in for the skipped subtree x: a
// pruned extent's substitute states, or a chunk's root states (the chunk's
// own kernel counts its nodes and bytes).
func (k *foldKernel) hole(x storage.Extent, s []StateID, pruned bool) {
	if pruned {
		k.st.SkippedBytes += x.Size * storage.NodeSize
		k.st.Nodes += x.Size
	}
	for li := range k.lanes {
		l := &k.lanes[li]
		l.stack = append(l.stack, s[li])
		k.st.MaxStack = max(k.st.MaxStack, len(l.stack))
	}
}

// finish returns the states of the region's root, one per lane.
func (k *foldKernel) finish() ([]StateID, error) {
	roots := make([]StateID, len(k.lanes))
	for li, l := range k.lanes {
		if len(l.stack) != 1 {
			return nil, fmt.Errorf("%w: %d roots", storage.ErrMalformed, len(l.stack))
		}
		roots[li] = l.stack[0]
	}
	return roots, nil
}

// scanKernel is phase 2 over one region [root, end): per lane with a
// state-file slot (every lane of a forward attempt) the stack of top-down
// states whose second subtree is pending and where the next node hangs,
// and one aux-out buffer every lane fills.
type scanKernel struct {
	*diskFiles
	root, end int64
	lanes     []scanLane

	// visit sees every node of a marked run — only the leader of an empty
	// frontier of a scalar run has one — with its query mask.
	visit visitFunc

	aux    []byte
	auxOut runWriter
	st     storage.ScanStats
}

// visitFunc is the one per-node hook of phase 2 (scanKernel.visit): node v,
// its record and its query mask. It streams marked XML.
type visitFunc func(v int64, rec uint16, mask uint64) error

// scanLane is lane li's phase 2 over the region. The region's root enters
// in rootTD once its stored state has been checked against rootBU, the
// state phase 1 (or, forward, the root's record) gave it; the next node
// hangs under parent as child k (k == 0 only before the region's root and
// after its last node).
type scanLane struct {
	*lane
	li             int
	cache          *StepCache
	rootBU, rootTD StateID
	marks          laneMarks
	states         []byte
	pending        []StateID
	parent         StateID
	k              int
}

// newScan starts phase 2 over the region x, a worker's chunk or not, whose
// root states are rootBU and which enters in rootTD, one each per lane;
// lanes without a state-file slot take no part.
func (r *diskFiles) newScan(caches []*StepCache, x storage.Extent, rootBU, rootTD []StateID, worker bool) *scanKernel {
	k := &scanKernel{diskFiles: r, root: x.Root, end: x.End(), aux: r.auxBuf(), auxOut: runWriter{f: r.auxOutF}}
	for li, c := range caches {
		if r.lanes[li].slot < 0 {
			continue
		}
		l := scanLane{lane: &r.lanes[li], li: li, cache: c, rootBU: rootBU[li], rootTD: rootTD[li], marks: r.marks(li, x, worker)}
		if !r.forward {
			l.states = make([]byte, storage.WindowNodes*r.w)
		}
		k.lanes = append(k.lanes, l)
	}
	return k
}

// scanWindow steps every lane's δB over one window of records.
func (k *scanKernel) scanWindow(first int64, recs []byte) error {
	n := len(recs) / storage.NodeSize
	aux, err := k.auxWindow(k.aux, first, n)
	if err != nil {
		return err
	}
	var auxOut []byte
	if k.auxOutF != nil {
		auxOut = k.auxOut.at(first*int64(k.outW), n*k.outW)
		clear(auxOut) // slots no lane fills stay zero
	}
	for li := range k.lanes {
		l := &k.lanes[li]
		var states []byte
		if !k.forward {
			states = l.states[:n*k.w]
			if _, err := k.stateF.ReadAt(states, k.stateOff(l.slot, first, n)); err != nil {
				return fmt.Errorf("core: reading state file: %w", err)
			}
		}
		if err := k.scan(l, first, recs, states, aux, auxOut); err != nil {
			return err
		}
	}
	k.st.Nodes += int64(n)
	return nil
}

// scan steps one lane over the window, first node first, taking each
// node's bottom-up state from states, or from its record where states is
// nil (a forward attempt: the region's root's came with the region).
func (k *scanKernel) scan(l *scanLane, first int64, recs, states, aux, auxOut []byte) (err error) {
	n := len(recs) / storage.NodeSize
	w := k.w
	cache, pending, parent, kk, maxStack := l.cache, l.pending, l.parent, l.k, k.st.MaxStack
	for i := 0; i < n; i++ {
		v := first + int64(i)
		rec := binary.BigEndian.Uint16(recs[i*storage.NodeSize:])
		var bu StateID
		switch {
		case states != nil:
			bu = getState(states[(n-1-i)*w:], w)
		case kk == 0:
			bu = l.rootBU
		default:
			if bu = cache.recHit(rec) - 1; bu < 0 {
				bu, _ = cache.RecState(rec, false) // false only at a root
			}
		}
		var td StateID
		if kk == 0 {
			if td, err = k.enter(l, v, bu); err != nil {
				return err
			}
		} else if td = cache.tdHit(parent, bu, kk) - 1; td < 0 {
			td = cache.TDStep(parent, bu, kk)
		}
		mask := cache.QueryMask(td)
		if mask != 0 {
			l.marks.mark(mask, v)
		}
		if k.visit != nil {
			if err := k.visit(v, rec, mask); err != nil {
				return err
			}
		}
		if auxOut != nil {
			for _, o := range l.outs {
				var cur uint16
				if o.in >= 0 {
					cur = binary.BigEndian.Uint16(aux[i*k.inW+o.in:])
				}
				if mask&o.query != 0 {
					cur |= o.bit
				}
				binary.BigEndian.PutUint16(auxOut[i*k.outW+o.slot:], cur)
			}
		}
		if rec&storage.FlagSecond != 0 {
			pending = append(pending, td)
			maxStack = max(maxStack, len(pending))
		}
		if rec&storage.FlagFirst != 0 {
			parent, kk = td, 1
		} else if np := len(pending); np > 0 {
			parent, kk, pending = pending[np-1], 2, pending[:np-1]
		} else {
			kk = 0
			if v+1 != k.end {
				return k.endedEarly(v + 1)
			}
		}
	}
	l.pending, l.parent, l.k, k.st.MaxStack = pending, parent, kk, maxStack
	return nil
}

// enter returns the top-down state of a node that hangs under no node of
// the region, which only the region's root may.
func (k *scanKernel) enter(l *scanLane, v int64, bu StateID) (StateID, error) {
	if v != k.root {
		return NoState, fmt.Errorf("%w: parentless node %d", storage.ErrMalformed, v)
	}
	if bu != l.rootBU {
		return NoState, fmt.Errorf("core: state file corrupt: root state %d at node %d, phase 1 computed %d", bu, v, l.rootBU)
	}
	return l.rootTD, nil
}

func (k *scanKernel) endedEarly(next int64) error {
	return fmt.Errorf("%w: scan ended at node %d of %d", storage.ErrMalformed, next-1, k.end)
}

// entryStates are the top-down states, one per lane (NoState for a lane
// without a slot), the root of the skipped subtree x, whose phase-1 states
// are bu, is entered in — the leader computes a chunk's here.
func (k *scanKernel) entryStates(x storage.Extent, bu []StateID) ([]StateID, error) {
	td := make([]StateID, len(k.diskFiles.lanes))
	for i := range td {
		td[i] = NoState
	}
	for i := range k.lanes {
		l := &k.lanes[i]
		if l.k == 0 {
			var err error
			if td[l.li], err = k.enter(l, x.Root, bu[l.li]); err != nil {
				return nil, err
			}
		} else {
			td[l.li] = l.cache.TDStep(l.parent, bu[l.li], l.k)
		}
	}
	return td, nil
}

// hole moves the scan past the skipped subtree x. A pruned one is selection
// free, so all it leaves behind is zero output masks (prunable passes have
// no aux input to propagate); a chunk writes its own, and its own kernel
// counts its nodes and bytes.
func (k *scanKernel) hole(x storage.Extent, pruned bool) error {
	if pruned {
		k.st.SkippedBytes += x.Size * storage.NodeSize
		k.st.Nodes += x.Size
		if k.auxOutF != nil {
			k.auxOut.zeros(x.Root*int64(k.outW), x.Size*int64(k.outW))
		}
	}
	for li := range k.lanes {
		l := &k.lanes[li]
		if np := len(l.pending); np > 0 {
			l.parent, l.k, l.pending = l.pending[np-1], 2, l.pending[:np-1]
		} else {
			l.k = 0
			if x.End() != k.end {
				return k.endedEarly(x.End())
			}
		}
	}
	return nil
}

// finish checks that the region ended where its records said it would and
// flushes its output masks.
func (k *scanKernel) finish() error {
	for _, l := range k.lanes {
		if l.k != 0 || len(l.pending) > 0 {
			return fmt.Errorf("%w: %d announced subtrees missing at node %d", storage.ErrMalformed, len(l.pending)+1, k.end)
		}
	}
	return k.auxOut.flush()
}
