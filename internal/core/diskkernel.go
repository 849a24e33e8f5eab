package core

import (
	"encoding/binary"
	"fmt"
	"os"

	"arb/internal/storage"
)

// The window kernels are the two loops of the scalar disk driver: phase 1
// folds and phase 2 scans the raw record windows storage hands out, with
// the automaton step, the stack and the state-file codec in one loop body
// instead of behind a per-node callback. Every per-node byte outside the
// records is addressed by node index — the state of node v sits at
// (N-1-v)·w of the state file (reverse preorder, the order phase 1 makes
// them in), its aux masks at 2v of the sidecars — so a window reads or
// writes its slice of each file at an offset computed from its first node,
// whatever holes the pass skips around it.

// diskFiles is what the kernels of one attempt share: the files and the
// attempt's state width.
type diskFiles struct {
	n       int64    // nodes in the database
	w       int      // bytes per state id (stateByte, stateNarrow or stateWide)
	stateF  *os.File // phase 1 writes it, phase 2 reads it
	auxF    *os.File // input masks; nil without AuxIn
	auxOutF *os.File // output masks; nil without AuxOut, created for phase 2

	outBit   uint16 // ORed into the output mask of every node ...
	queryBit uint64 // ... whose query mask has this bit
}

// stateOff is the state-file offset of the states of the n nodes from
// first on; within that slice node first+i sits at (n-1-i)·w.
func (r *diskFiles) stateOff(first int64, n int) int64 {
	return (r.n - first - int64(n)) * int64(r.w)
}

// auxWindow reads the input masks of the n nodes from first on into buf.
func (r *diskFiles) auxWindow(buf []byte, first int64, n int) ([]byte, error) {
	if r.auxF == nil {
		return nil, nil
	}
	buf = buf[:n*auxMaskSize]
	if _, err := r.auxF.ReadAt(buf, first*auxMaskSize); err != nil {
		return nil, fmt.Errorf("core: reading aux file: %w", err)
	}
	return buf, nil
}

func (r *diskFiles) auxBuf() []byte {
	if r.auxF == nil {
		return nil
	}
	return make([]byte, storage.WindowNodes*auxMaskSize)
}

// foldKernel is phase 1 over one region — a worker's chunk or the leader's
// glue: the stack of subtree states, and a window's worth of buffer for the
// states it writes and the aux masks it reads.
type foldKernel struct {
	*diskFiles
	cache  *StepCache
	states []byte
	aux    []byte
	stack  []StateID
	st     storage.ScanStats
}

func (r *diskFiles) newFold(cache *StepCache) *foldKernel {
	return &foldKernel{diskFiles: r, cache: cache, states: make([]byte, storage.WindowNodes*r.w), aux: r.auxBuf()}
}

// foldWindow steps δA over one window of records, last node first.
func (k *foldKernel) foldWindow(first int64, recs []byte) error {
	n := len(recs) / storage.NodeSize
	aux, err := k.auxWindow(k.aux, first, n)
	if err != nil {
		return err
	}
	w := k.w
	out := k.states[:n*w]
	cache, stack, maxStack := k.cache, k.stack, k.st.MaxStack
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
		if aux != nil {
			extra = binary.BigEndian.Uint16(aux[i*auxMaskSize:])
		}
		// The table hits inline (see StepCache.sigHit); the calls are for
		// the root, aux bits and transitions not cached yet.
		sig := cache.sigHit(rec) - 1
		if root := first == 0 && i == 0; sig < 0 || extra != 0 || root {
			sig = cache.SigID(rec, root, extra)
		}
		id := cache.buHit(left, right, sig) - 1
		if id < 0 {
			id = cache.BUStep(left, right, sig)
		}
		if err := putState(out[(n-1-i)*w:], w, id); err != nil {
			return err
		}
		stack = append(stack, id)
		maxStack = max(maxStack, len(stack))
	}
	k.stack, k.st.MaxStack = stack, maxStack
	k.st.Nodes += int64(n)
	if _, err := k.stateF.WriteAt(out, k.stateOff(first, n)); err != nil {
		return fmt.Errorf("core: writing state file: %w", err)
	}
	return nil
}

// hole stands state s in for the skipped subtree x: a pruned extent's
// substitute state, or a chunk's root state (the chunk's own kernel counts
// its nodes and bytes).
func (k *foldKernel) hole(x storage.Extent, s StateID, pruned bool) {
	if pruned {
		k.st.SkippedBytes += x.Size * storage.NodeSize
		k.st.Nodes += x.Size
	}
	k.stack = append(k.stack, s)
	k.st.MaxStack = max(k.st.MaxStack, len(k.stack))
}

// finish returns the state of the region's root.
func (k *foldKernel) finish() (StateID, error) {
	if len(k.stack) != 1 {
		return NoState, fmt.Errorf("%w: %d roots", storage.ErrMalformed, len(k.stack))
	}
	return k.stack[0], nil
}

// scanKernel is phase 2 over one region [root, end): the stack of
// top-down states whose second subtree is pending, and where the next node
// hangs (under parent as child k; k == 0 only before the region's root and
// after its last node).
type scanKernel struct {
	*diskFiles
	cache *StepCache

	// The region's root enters in rootTD once its stored state has been
	// checked against rootBU, the state phase 1 computed for it.
	root, end      int64
	rootBU, rootTD StateID

	// Marks go to the result directly (the leader: no worker is running
	// yet) or to private bitsets starting at word w0 (a worker's chunk).
	res   *Result
	local [][]uint64
	w0    int64

	// Only the leader of an empty frontier emits marked XML.
	emitter *storage.XMLEmitter
	markBit uint64

	states  []byte
	aux     []byte
	auxOut  runWriter
	pending []StateID
	parent  StateID
	k       int
	st      storage.ScanStats
}

func (r *diskFiles) newScan(cache *StepCache, x storage.Extent, rootBU, rootTD StateID) *scanKernel {
	return &scanKernel{diskFiles: r, cache: cache, root: x.Root, end: x.End(), rootBU: rootBU, rootTD: rootTD,
		states: make([]byte, storage.WindowNodes*r.w), aux: r.auxBuf(), auxOut: runWriter{f: r.auxOutF}}
}

// scanWindow steps δB over one window of records, first node first.
func (k *scanKernel) scanWindow(first int64, recs []byte) error {
	n := len(recs) / storage.NodeSize
	w := k.w
	states := k.states[:n*w]
	if _, err := k.stateF.ReadAt(states, k.stateOff(first, n)); err != nil {
		return fmt.Errorf("core: reading state file: %w", err)
	}
	aux, err := k.auxWindow(k.aux, first, n)
	if err != nil {
		return err
	}
	var auxOut []byte
	if k.auxOutF != nil {
		auxOut = k.auxOut.at(first*auxMaskSize, n*auxMaskSize)
	}
	cache, pending, parent, kk, maxStack := k.cache, k.pending, k.parent, k.k, k.st.MaxStack
	for i := 0; i < n; i++ {
		v := first + int64(i)
		rec := binary.BigEndian.Uint16(recs[i*storage.NodeSize:])
		bu := getState(states[(n-1-i)*w:], w)
		var td StateID
		if kk == 0 {
			if td, err = k.enter(v, bu); err != nil {
				return err
			}
		} else if td = cache.tdHit(parent, bu, kk) - 1; td < 0 {
			td = cache.TDStep(parent, bu, kk)
		}
		mask := cache.QueryMask(td)
		if mask != 0 {
			k.mark(mask, v)
		}
		if k.emitter != nil {
			if err := k.emitter.Node(v, storage.DecodeRecord(rec), mask&k.markBit != 0); err != nil {
				return err
			}
		}
		if auxOut != nil {
			var cur uint16
			if aux != nil {
				cur = binary.BigEndian.Uint16(aux[i*auxMaskSize:])
			}
			if mask&k.queryBit != 0 {
				cur |= k.outBit
			}
			binary.BigEndian.PutUint16(auxOut[i*auxMaskSize:], cur)
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
	k.pending, k.parent, k.k, k.st.MaxStack = pending, parent, kk, maxStack
	k.st.Nodes += int64(n)
	return nil
}

// enter returns the top-down state of a node that hangs under no node of
// the region, which only the region's root may.
func (k *scanKernel) enter(v int64, bu StateID) (StateID, error) {
	if v != k.root {
		return NoState, fmt.Errorf("%w: parentless node %d", storage.ErrMalformed, v)
	}
	if bu != k.rootBU {
		return NoState, fmt.Errorf("core: state file corrupt: root state %d at node %d, phase 1 computed %d", bu, v, k.rootBU)
	}
	return k.rootTD, nil
}

func (k *scanKernel) endedEarly(next int64) error {
	return fmt.Errorf("%w: scan ended at node %d of %d", storage.ErrMalformed, next-1, k.end)
}

func (k *scanKernel) mark(mask uint64, v int64) {
	if k.local == nil {
		k.res.MarkMask(mask, v)
		return
	}
	for qi := 0; mask != 0; qi++ {
		if mask&1 != 0 {
			k.local[qi][v/64-k.w0] |= 1 << uint(v%64)
		}
		mask >>= 1
	}
}

// entryState is the top-down state the root of the skipped subtree x, whose
// phase-1 state is bu, is entered in — the leader computes a chunk's here.
func (k *scanKernel) entryState(x storage.Extent, bu StateID) (StateID, error) {
	if k.k == 0 {
		return k.enter(x.Root, bu)
	}
	return k.cache.TDStep(k.parent, bu, k.k), nil
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
			k.auxOut.zeros(x.Root*auxMaskSize, x.Size*auxMaskSize)
		}
	}
	if np := len(k.pending); np > 0 {
		k.parent, k.k, k.pending = k.pending[np-1], 2, k.pending[:np-1]
	} else {
		k.k = 0
		if x.End() != k.end {
			return k.endedEarly(x.End())
		}
	}
	return nil
}

// finish checks that the region ended where its records said it would and
// flushes its output masks.
func (k *scanKernel) finish() error {
	if k.k != 0 || len(k.pending) > 0 {
		return fmt.Errorf("%w: %d announced subtrees missing at node %d", storage.ErrMalformed, len(k.pending)+1, k.end)
	}
	return k.auxOut.flush()
}
