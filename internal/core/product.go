package core

import (
	"math"
	"slices"
	"sync"

	"arb/internal/edb"
	"arb/internal/storage"
	"arb/internal/tree"
)

// A disk batch steps its members in lanes: a member alone steps its own
// engine, and several members share one lane by stepping the product of
// their automata. The product's states are tuples of the members' states,
// interned as dense ids, so a lane steps one δA and one δB table per node
// whatever its size — the paper's transition reuse across nodes and trees
// (footnote 15), extended across queries — and its state file holds one id
// per node. Its query mask is the members' masks side by side, which is why
// a lane holds at most maxLaneQueries query predicates. Product ids are
// only valid within the run that built the product; a member's own states,
// computed on the product's misses, stay the engine-global ids they are in
// a scalar run, so a batch computes exactly the transitions its members
// would alone.

// maxLaneQueries bounds a lane's combined query mask, one uint64.
const maxLaneQueries = 64

// product is the product automaton of one lane, a stepper for the lane's
// StepCaches: each miss steps every member through the member's own
// StepCache and interns the resulting tuple. The lane's worker caches miss
// concurrently, so everything is guarded by pmu, which is taken before any
// member engine's lock (the member caches' misses) and never after one.
type product struct {
	pmu    sync.Mutex
	caches []*StepCache // guarded by: pmu
	offs   []int        // each member's first bit in the combined query mask
	sigs   tuples       // guarded by: pmu
	bu     tuples       // guarded by: pmu
	td     tuples       // guarded by: pmu
	cur    []StateID    // guarded by: pmu — the tuple being stepped
}

// tuples interns fixed-length tuples of member ids as dense ids, in an
// open-addressed hash table over the tuples themselves: no allocation per
// tuple, so a product's cold states cost a run no more allocations than
// its tables' geometric growth.
type tuples struct {
	n     int
	flat  []int32 // tuple i is flat[i*n : (i+1)*n]
	slots []int32 // tuple id + 1 by hash, linearly probed; 0 is empty
}

func (t *tuples) intern(tu []int32) int32 {
	if 2*(len(t.flat)/t.n+1) > len(t.slots) {
		t.rehash(max(64, 2*len(t.slots)))
	}
	mask := len(t.slots) - 1
	for i := hashTuple(tu) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id := int32(len(t.flat) / t.n)
			t.flat = append(t.flat, tu...)
			t.slots[i] = id + 1
			return id
		}
		if slices.Equal(t.flat[int(s-1)*t.n:int(s)*t.n], tu) {
			return s - 1
		}
	}
}

func (t *tuples) rehash(size int) {
	t.slots = make([]int32, size)
	for id := int32(0); int(id) < len(t.flat)/t.n; id++ {
		i := hashTuple(t.flat[int(id)*t.n:int(id+1)*t.n]) & (size - 1)
		for t.slots[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		t.slots[i] = id + 1
	}
}

// hashTuple is FNV-1a over the ids.
func hashTuple(tu []int32) int {
	h := uint64(14695981039346656037)
	for _, id := range tu {
		h = (h ^ uint64(uint32(id))) * 1099511628211
	}
	return int((h ^ h>>32) & math.MaxInt32)
}

// at returns member m's id in tuple id.
func (t *tuples) at(id int32, m int) int32 { return t.flat[int(id)*t.n+m] }

// newProduct builds the product of the members' automata.
//
// arblint:holds pmu — the fresh product is exclusively owned.
func newProduct(members []*SharedEngine, offs []int) *product {
	n := len(members)
	p := &product{offs: offs, cur: make([]StateID, n)}
	p.sigs, p.bu, p.td = tuples{n: n}, tuples{n: n}, tuples{n: n}
	for _, s := range members {
		// The lane's caches resolve each record once, so the members' need
		// no signature table: SigID goes to their engines directly.
		p.caches = append(p.caches, &StepCache{s: s})
	}
	return p
}

// SigID is the product's signature class: the tuple of the members'.
func (p *product) SigID(sig edb.NodeSig) int32 {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	for m, c := range p.caches {
		p.cur[m] = c.s.SigID(sig)
	}
	return p.sigs.intern(p.cur)
}

// ReachableStates is the product's δA.
func (p *product) ReachableStates(left, right StateID, sig int32) StateID {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	for m, c := range p.caches {
		l, r := NoState, NoState
		if left != NoState {
			l = p.bu.at(left, m)
		}
		if right != NoState {
			r = p.bu.at(right, m)
		}
		p.cur[m] = c.BUStep(l, r, p.sigs.at(sig, m))
	}
	return p.bu.intern(p.cur)
}

// RootTrueSet is the product's top-down start state.
func (p *product) RootTrueSet(bu StateID) StateID {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	for m, c := range p.caches {
		p.cur[m] = c.RootTrueSet(p.bu.at(bu, m))
	}
	return p.td.intern(p.cur)
}

// TruePreds is the product's δB_k.
func (p *product) TruePreds(parent, bu StateID, k int) StateID {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	for m, c := range p.caches {
		p.cur[m] = c.TDStep(p.td.at(parent, m), p.bu.at(bu, m), k)
	}
	return p.td.intern(p.cur)
}

// QueryMask is the members' query masks side by side.
func (p *product) QueryMask(td StateID) uint64 {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	var mask uint64
	for m, c := range p.caches {
		mask |= c.QueryMask(p.td.at(td, m)) << uint(p.offs[m])
	}
	return mask
}

// Verdict is the members' one-scan verdicts side by side: known only
// where every member's is.
func (p *product) Verdict(bu StateID, root bool) (uint64, bool) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	var mask uint64
	for m, c := range p.caches {
		v, ok := c.Verdict(p.bu.at(bu, m), root)
		if !ok {
			return 0, false
		}
		mask |= v << uint(p.offs[m])
	}
	return mask, true
}

// state interns a tuple of member bottom-up states: the substitute state
// of a pruned extent is the tuple of the members' own.
func (p *product) state(members []StateID) StateID {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.bu.intern(members)
}

// lane is the members of a disk run that step one automaton: st is the
// member's SharedEngine for a lane of one, the members' product otherwise.
type lane struct {
	st      stepper
	names   *tree.Names
	members []int // indices into the run's members
	offs    []int // each member's first bit in the lane's query mask
	nq      int   // query predicates in all
	auxIn   int   // byte offset of the lane's mask in a node's aux-in vector; -1 for none
	outs    []laneOut
	// slot is the lane's region of one attempt's state file, or -1 when
	// its bottom-up states decide its selections and phase 2 skips it. A
	// forward attempt has no state file, and every lane a slot: all of
	// them take part in phase 2.
	slot int
}

// laneOut is one member's slot of the aux-out sidecar: its aux-in mask (at
// byte offset in of the node's input vector; none for -1) ORed with bit
// wherever the lane's query mask has query. slot is a byte offset too.
type laneOut struct {
	slot, in int
	bit      uint16
	query    uint64
}

// lanesFor splits a run's members into lanes, greedily in member order: a
// lane holds at most maxLaneQueries query predicates, and a member that
// reads aux input (readsAux and a slot) steps alone — the product's
// signature classes carry no aux bits.
func lanesFor(members []BatchMember, readsAux bool, rs *RunStats) []lane {
	var lanes []lane
	var cur []int
	nq := 0
	flush := func() {
		if len(cur) > 0 {
			lanes = append(lanes, newLane(members, cur, readsAux, rs))
			cur, nq = nil, 0
		}
	}
	for m, bm := range members {
		alone := readsAux && bm.AuxInSlot >= 0
		q := len(bm.E.c.Queries)
		if alone || nq+q > maxLaneQueries {
			flush()
		}
		cur, nq = append(cur, m), nq+q
		if alone {
			flush()
		}
	}
	flush()
	return lanes
}

func newLane(members []BatchMember, idx []int, readsAux bool, rs *RunStats) lane {
	l := lane{names: members[idx[0]].E.names, members: idx, auxIn: -1}
	shared := make([]*SharedEngine, len(idx))
	for j, m := range idx {
		bm := members[m]
		shared[j] = bm.E.ShareTo(rs)
		l.offs = append(l.offs, l.nq)
		in := -1
		if readsAux && bm.AuxInSlot >= 0 {
			in = bm.AuxInSlot * storage.MaskSize
			l.auxIn = in
		}
		if bm.AuxOutSlot >= 0 {
			l.outs = append(l.outs, laneOut{slot: bm.AuxOutSlot * storage.MaskSize, in: in,
				bit: 1 << bm.AuxOutBit, query: 1 << uint(l.nq)})
		}
		l.nq += len(bm.E.c.Queries)
	}
	if len(idx) == 1 {
		l.st = shared[0]
	} else {
		l.st = newProduct(shared, l.offs)
	}
	return l
}

// sub is the lane's substitute state for the extents plan prunes.
func (l *lane) sub(plan *PrunePlan) StateID {
	if plan == nil {
		return NoState
	}
	p, ok := l.st.(*product)
	if !ok {
		return plan.Sub(l.members[0])
	}
	subs := make([]StateID, len(l.members))
	for j, m := range l.members {
		subs[j] = plan.Sub(m)
	}
	return p.state(subs)
}
