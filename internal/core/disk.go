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
	"time"

	"arb/internal/storage"
)

// DiskOpts configures a secondary-storage evaluation run.
type DiskOpts struct {
	// StatePath overrides the path of the temporary state file. The file
	// holds one 4-byte state id per node, written in reverse preorder by
	// phase 1 and read backwards (i.e. in preorder) by phase 2 — the
	// paper's footnote 12. When empty, the run uses a unique temporary
	// file next to the database, so concurrent runs over one database —
	// kept or not — never collide.
	StatePath string
	// KeepStateFile retains the state file after a successful run and
	// reports its (unique) path as Result.StateFile; a failed run always
	// removes the file it created.
	KeepStateFile bool

	// AuxIn optionally names a sidecar file holding one 2-byte
	// big-endian auxiliary predicate mask per node in preorder (bit k =
	// Aux[k]) — the disk form of RunOpts.Aux. Phase 1 reads it backwards
	// alongside the .arb file, phase 2 forwards, preserving the
	// two-linear-scans property.
	AuxIn string
	// AuxOut, when non-empty, makes phase 2 stream an updated aux file:
	// the input masks (zero if AuxIn is empty) ORed with bit AuxOutBit
	// for every node the query predicate AuxOutQuery selects. Chaining
	// runs through aux files is how multi-pass XPath negation evaluates
	// entirely in secondary storage.
	AuxOut      string
	AuxOutBit   uint8
	AuxOutQuery int

	// MarkTo, when non-nil, streams the document back out as XML during
	// phase 2 itself, with the nodes selected by query predicate
	// MarkQuery marked up — the system's default output mode
	// (Section 6.3), produced with no pass beyond the two scans.
	MarkTo    io.Writer
	MarkQuery int

	// NoPrune disables selectivity-aware scan pruning (prune.go) for this
	// run. Pruning is otherwise applied automatically whenever it is
	// provably sound; runs with aux input, marked output, or an external
	// state-file contract (StatePath/KeepStateFile) never prune.
	NoPrune bool

	// Run, when non-nil, receives this run's exact statistics (node
	// visits, prune savings, phase times, and the transitions its own
	// cache misses computed) — deterministic per-run attribution even
	// when executions overlap on one engine.
	Run *RunStats
}

// DiskStats reports the per-scan cost profile of a disk run, alongside the
// engine's cumulative Stats. StateBytes is the temporary disk space the
// run needed (4 bytes per node, as in the paper's implementation).
type DiskStats struct {
	Phase1     storage.ScanStats
	Phase2     storage.ScanStats
	StateBytes int64
}

// Merge folds another run's disk profile into this one (e.g. the passes
// of one multi-pass execution): scan costs merge per phase, temporary
// state bytes add up.
func (d *DiskStats) Merge(o DiskStats) {
	d.Phase1.Merge(o.Phase1)
	d.Phase2.Merge(o.Phase2)
	d.StateBytes += o.StateBytes
}

// stateIDSize is the on-disk size of one streamed state id.
const stateIDSize = 4

// RunDiskContext evaluates the engine's program over a .arb database in
// secondary storage using Algorithm 4.6 with exactly two linear scans of
// the data (Proposition 5.1): phase 1 is one backward scan of the .arb
// file that streams the bottom-up state of every node to a temporary
// file; phase 2 is one forward scan of the .arb file that reads the state
// file backwards — yielding the phase-1 states in preorder — and computes
// the true predicates per node. Main memory holds only the two automata
// (computed lazily) and a stack bounded by the depth of the XML document.
// Cancelling ctx aborts the scan in progress with ctx.Err(); a failed or
// cancelled run removes the temporary state file and any partially
// written AuxOut sidecar.
func (e *Engine) RunDiskContext(ctx context.Context, db *storage.DB, opts DiskOpts) (*Result, *DiskStats, error) {
	if db.N == 0 {
		return nil, nil, errors.New("core: empty database")
	}
	if e.names != db.Names {
		// Label[..] tests are resolved against e.names; running against a
		// database with a different name table would silently misresolve.
		return nil, nil, errors.New("core: engine name table does not match database")
	}
	res := NewResult(e.c.Prog, db.N)
	ds := &DiskStats{StateBytes: db.N * stateIDSize}
	e.AddNodes(db.N)
	opts.Run.AddNodes(db.N)

	// Selectivity-aware pruning: seek past extents the static analysis
	// proves irrelevant. Sound only without aux input (aux bits vary per
	// node), without marked output (every node must be emitted), and
	// without an external state-file contract (the pruned state file has
	// holes where extents were skipped).
	var prune *PrunePlan
	if !opts.NoPrune && opts.AuxIn == "" && opts.MarkTo == nil && !opts.KeepStateFile && opts.StatePath == "" && db.N >= PruneMinNodes {
		if ix, ierr := db.Index(ctx, 0); ierr == nil {
			prune = PlanPrune([]*Engine{e}, ix, db.N)
		}
	}
	var pruneExts []storage.Extent
	if prune != nil {
		pruneExts = prune.Extents
		e.AddPrunedNodes(prune.Nodes)
		opts.Run.AddPrunedNodes(prune.Nodes)
	}
	cache := e.ShareTo(opts.Run).NewStepCache()

	// Optional auxiliary mask file, read backwards in phase 1 and
	// forwards in phase 2.
	var auxBack *storage.BackwardReader
	var auxFwd *bufio.Reader
	var auxF *os.File
	if opts.AuxIn != "" {
		var err error
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
		auxBack, err = storage.NewBackwardReader(auxF, db.N*auxMaskSize, auxMaskSize)
		if err != nil {
			return nil, nil, err
		}
		defer auxBack.Release()
	}

	// Phase 1: backward scan of .arb; combine child states through the
	// lazy transition function of A and stream every node's state id.
	start := time.Now()
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
	// States stream through a run-batched writer at the offset of each
	// node's reverse-preorder slot: without pruning the offsets are one
	// contiguous ascending run (plain sequential writes); a pruned extent
	// is a hole the writer jumps over and the file never materialises.
	sw := &runWriter{f: stateF}
	var werr error
	rootState, scan1, err := storage.FoldBottomUpSkipping(ctx, db, pruneExts,
		func(x storage.Extent) (StateID, error) {
			return prune.Sub(0), nil
		},
		func(first, second *StateID, rec storage.Record, v int64) StateID {
			s := buStep(cache, first, second, rec, v, auxBack, &werr)
			binary.BigEndian.PutUint32(sw.at((db.N-1-v)*stateIDSize, stateIDSize), uint32(s))
			return s
		})
	if err != nil {
		return nil, nil, err
	}
	if werr == nil {
		werr = sw.flush()
	}
	if werr != nil {
		return nil, nil, fmt.Errorf("core: writing state file: %w", werr)
	}
	if prune != nil {
		scan1.SkippedBytes += prune.Nodes * storage.NodeSize
	}
	ds.Phase1 = scan1
	phase1 := time.Since(start)

	// Phase 2: forward scan of .arb; the state file, read backwards,
	// yields the phase-1 states in preorder.
	start = time.Now()
	br, err := storage.NewBackwardReader(stateF, db.N*stateIDSize, stateIDSize)
	if err != nil {
		return nil, nil, err
	}
	defer br.Release()
	if auxF != nil {
		if _, err := auxF.Seek(0, io.SeekStart); err != nil {
			return nil, nil, err
		}
		auxFwd = bufio.NewReaderSize(auxF, 1<<16)
	}
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
	auxOut := &runWriter{f: auxOutF}
	outBit := uint16(1) << opts.AuxOutBit
	queryBit := uint64(1) << uint(opts.AuxOutQuery)
	var emitter *storage.XMLEmitter
	markBit := uint64(1) << uint(opts.MarkQuery)
	if opts.MarkTo != nil {
		emitter = storage.NewXMLEmitter(opts.MarkTo, db.Names)
	}
	scan2, err := storage.ScanTopDownSkipping(ctx, db, pruneExts,
		func(x storage.Extent, parent *StateID, k int) error {
			// The analysis proved no node of the extent can be selected:
			// skip its bytes, its state-file hole, and stream zero aux
			// masks for its slots (prunable passes have no aux input).
			if err := br.Skip(x.Size); err != nil {
				return err
			}
			if auxOutF != nil {
				auxOut.zeros(x.Root*auxMaskSize, x.Size*auxMaskSize)
			}
			return nil
		},
		func(v int64, rec storage.Record, parent *StateID, k int) (StateID, error) {
			b, err := br.Next()
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
				td = cache.RootTrueSet(bu)
			} else {
				td = cache.TDStep(*parent, bu, k)
			}
			mask := cache.QueryMask(td)
			if mask != 0 {
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
	if err := auxOut.flush(); err != nil {
		return nil, nil, err
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
	if prune != nil {
		scan2.SkippedBytes += prune.Nodes * storage.NodeSize
	}
	ds.Phase2 = scan2
	phase2 := time.Since(start)
	e.addPhaseTimes(phase1, phase2)
	opts.Run.AddPhaseTimes(phase1, phase2)
	if opts.KeepStateFile {
		res.StateFile = statePath
	}
	succeeded = true
	return res, ds, nil
}

// createStateFile opens the phase-1 state file for a run: opts.StatePath
// if set; otherwise a unique temporary file next to the database, so two
// concurrent runs sharing a database directory never clobber each other's
// state. KeepStateFile runs use the same unique naming — the kept path is
// reported as Result.StateFile rather than through a fixed, discoverable
// name, so concurrent kept runs neither block nor overwrite one another.
func createStateFile(db *storage.DB, opts DiskOpts) (*os.File, string, error) {
	if opts.StatePath != "" {
		f, err := os.Create(opts.StatePath)
		return f, opts.StatePath, err
	}
	f, err := os.CreateTemp(filepath.Dir(db.Base), filepath.Base(db.Base)+"-*.sta")
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

// auxMaskSize is the on-disk size of one auxiliary predicate mask.
const auxMaskSize = 2

// nextMask consumes one mask from a forward aux reader, decoding it in
// the reader's buffer.
func nextMask(r *bufio.Reader) (uint16, error) {
	b, err := r.Peek(auxMaskSize)
	if err != nil {
		return 0, fmt.Errorf("core: reading aux file: %w", err)
	}
	r.Discard(auxMaskSize)
	return binary.BigEndian.Uint16(b), nil
}
