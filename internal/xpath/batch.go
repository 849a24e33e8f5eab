package xpath

import (
	"context"
	"errors"
	"fmt"

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
	// products keeps the lanes' product automata between executions, so
	// a batch's second and later executions step warm product tables. It
	// lives as long as the Batch: a caller whose members recompile builds
	// a new Batch, and the old products go with the old one.
	products core.Products
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

// auxSlots assigns each multi-pass member its slot in the aux planes of
// disk executions (core.DiskBatchOpts.Aux); single-pass members get -1.
// The returned count is the number of slots.
func (b *Batch) auxSlots() (slots []int, n int) {
	slots = make([]int, len(b.members))
	for i, m := range b.members {
		if m.Passes() > 1 {
			slots[i] = n
			n++
		} else {
			slots[i] = -1
		}
	}
	return slots, n
}

// roundMembers builds the core batch members of round r. For each member
// still holding a pass: pass r's engine, the member's aux input (the
// planes of its earlier passes) when pass r's program reads them, and — on
// every pass but its main — the instruction to publish plane r of its own
// slot. A pass that reads no aux input keeps the run's pruning, forward
// and one-scan verdicts, which aux input turns off.
func (b *Batch) roundMembers(r int, slots []int) (bms []core.BatchMember, idx []int) {
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
			if e.Compiled().ReadsAux() {
				bm.AuxInSlot = slots[i]
			}
			if !isMain {
				bm.AuxOutSlot = slots[i]
				bm.AuxOutBit = uint8(r)
			}
		}
		bms = append(bms, bm)
		idx = append(idx, i)
	}
	return bms, idx
}

// ExecDisk evaluates the whole batch over a .arb database, in secondary
// storage or over a tree's record image in RAM. It is the one pass
// scheduler: every round is one shared pass for all active members, which
// step in lanes sharing product automata (core.RunDiskBatchParallel) whose
// phase-1 states share one temporary state file — unless the bottom-up
// pass decides every lane's selections, and the round is one scan with no
// state file — and multi-pass members chain their passes through their
// own selections: each aux pass publishes what it selects as a plane of
// the member's slot of core.DiskBatchOpts.Aux, which its later passes
// read. So a batch of single-pass queries costs at most two linear scans
// of the data in aggregate, however many queries it holds, and a scalar
// execution (Prepared.ExecDisk) is a batch of one. opts.MarkTo and
// opts.MarkQuery apply to the main pass of a batch of one member and are
// rejected for larger batches. Cancelling ctx aborts the scan in progress
// and removes its state file.
func (b *Batch) ExecDisk(ctx context.Context, db *storage.DB, opts ExecOpts) ([]*core.Result, ExecStats, error) {
	if len(b.members) > 1 && opts.MarkTo != nil {
		return nil, ExecStats{}, errors.New("xpath: MarkTo needs a batch of one member")
	}
	rounds := b.Rounds()
	es := ExecStats{Passes: rounds}
	results := make([]*core.Result, len(b.members))
	slots, n := b.auxSlots()
	aux := make([]core.AuxPlanes, n)
	err := statsDelta(&es, func(rs *core.RunStats) error {
		for r := 0; r < rounds; r++ {
			bms, idx := b.roundMembers(r, slots)
			dopts := core.DiskBatchOpts{DiskOpts: core.DiskOpts{NoPrune: opts.NoPrune, Run: rs}, Aux: aux, Products: &b.products}
			if r == rounds-1 {
				// The main pass of a batch of one (larger batches were
				// rejected above with MarkTo set).
				dopts.MarkTo, dopts.MarkQuery = opts.MarkTo, opts.MarkQuery
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
		}
		return nil
	})
	if err != nil {
		return nil, es, err
	}
	return results, es, nil
}
