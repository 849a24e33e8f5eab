package xpath

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"arb/internal/core"
	"arb/internal/storage"
)

// Batch is a set of Prepared queries that execute together, sharing each
// round of scans across all members. Single-pass members cost one shared
// round for the whole batch; multi-pass members (XPath not(..)) are
// scheduled so that round r runs pass r of every member that still has
// one — sibling queries piggyback on each other's scans, and the total
// number of rounds is the maximum pass count over the batch, not the
// sum. Like Prepared, a Batch supports overlapping executions, including
// batches that share members (engines) with other live batches or
// scalar handles.
type Batch struct {
	members []*Prepared
}

// NewBatch groups prepared queries into a batch. The members keep their
// identity: each one's automata persist and its result slot in Exec's
// output follows member order.
func NewBatch(members []*Prepared) *Batch { return &Batch{members: members} }

// Rounds returns the number of shared scan rounds an execution runs: the
// maximum pass count over the members.
func (b *Batch) Rounds() int {
	r := 0
	for _, m := range b.members {
		if p := m.Passes(); p > r {
			r = p
		}
	}
	return r
}

// auxSlots assigns each multi-pass member its slot in the widened aux
// sidecars of disk executions; single-pass members get -1. The returned
// stride is the number of slots.
func (b *Batch) auxSlots() (slots []int, stride int) {
	slots = make([]int, len(b.members))
	for i, m := range b.members {
		if m.Passes() > 1 {
			slots[i] = stride
			stride++
		} else {
			slots[i] = -1
		}
	}
	return slots, stride
}

// roundMembers builds the core batch members of round r. For each member
// still holding a pass: pass r's engine, the member's aux input (bits of
// its earlier passes) and — on every pass but its main — the instruction
// to emit bit r of its own slot.
func (b *Batch) roundMembers(r int, slots []int, haveAuxIn bool) (bms []core.BatchMember, idx []int, anyOut bool) {
	for i, m := range b.members {
		if r >= m.Passes() {
			continue
		}
		isMain := r == m.Passes()-1
		e := m.main
		if !isMain {
			e = m.aux[r]
		}
		bm := core.BatchMember{E: e, AuxInSlot: -1, AuxOutSlot: -1}
		if m.Passes() > 1 {
			if haveAuxIn {
				bm.AuxInSlot = slots[i]
			}
			if !isMain {
				bm.AuxOutSlot = slots[i]
				bm.AuxOutBit = uint8(r)
				anyOut = true
			}
		}
		bms = append(bms, bm)
		idx = append(idx, i)
	}
	return bms, idx, anyOut
}

// ExecDisk evaluates the whole batch over a .arb database, in secondary
// storage or over a tree's record image in RAM. It is the one pass
// scheduler: every round is one shared pass for all active members, which
// step in lanes sharing product automata (core.RunDiskBatchParallel) whose
// phase-1 states share one temporary state file — unless the bottom-up
// pass decides every lane's selections, and the round is one scan with no
// state file — and multi-pass members chain their aux masks through one
// widened sidecar with a slot per member. So a batch of single-pass
// queries costs at most two linear scans of the data in aggregate, however
// many queries it holds, and a scalar execution (Prepared.ExecDisk) is a
// batch of one. opts.MarkTo and opts.MarkQuery apply to the main pass of a
// batch of one member and are rejected for larger batches. Cancelling ctx aborts the scan in progress and removes every
// temporary file.
func (b *Batch) ExecDisk(ctx context.Context, db *storage.DB, opts ExecOpts) ([]*core.Result, ExecStats, error) {
	if len(b.members) > 1 && opts.MarkTo != nil {
		return nil, ExecStats{}, errors.New("xpath: MarkTo needs a batch of one member")
	}
	rounds := b.Rounds()
	es := ExecStats{Passes: rounds}
	results := make([]*core.Result, len(b.members))
	slots, stride := b.auxSlots()
	err := statsDelta(&es, func(rs *core.RunStats) error {
		var tmp string
		if stride > 0 {
			// A private scratch directory per execution: concurrent
			// executions sharing a database directory must not clobber each
			// other's sidecars. Removing it afterwards — on success, failure
			// and cancellation alike — is what keeps cancelled multi-pass
			// executions from leaking them.
			var remove func()
			var err error
			if tmp, remove, err = db.ScratchDir(); err != nil {
				return err
			}
			defer remove()
		}
		auxIn := ""
		for r := 0; r < rounds; r++ {
			bms, idx, anyOut := b.roundMembers(r, slots, auxIn != "")
			dopts := core.DiskBatchOpts{DiskOpts: core.DiskOpts{NoPrune: opts.NoPrune, Run: rs}, AuxIn: auxIn}
			if r == rounds-1 {
				// The main pass of a batch of one (larger batches were
				// rejected above with MarkTo set).
				dopts.MarkTo, dopts.MarkQuery = opts.MarkTo, opts.MarkQuery
			}
			if auxIn != "" {
				dopts.AuxInStride = stride
			}
			if anyOut {
				dopts.AuxOut = filepath.Join(tmp, fmt.Sprintf("round%d.aux", r))
				dopts.AuxOutStride = stride
			}
			rres, _, ds, err := core.RunDiskBatchParallel(ctx, db, opts.Workers, bms, dopts)
			if ds != nil {
				es.Disk.Merge(*ds)
			}
			if err != nil {
				if rounds > 1 {
					err = fmt.Errorf("xpath: round %d: %w", r, err)
				}
				return err
			}
			for j, res := range rres {
				i := idx[j]
				if r == b.members[i].Passes()-1 {
					results[i] = res
				}
			}
			auxIn = dopts.AuxOut
		}
		return nil
	})
	if err != nil {
		return nil, es, err
	}
	return results, es, nil
}
