package core

import (
	"math"
	"slices"

	"arb/internal/edb"
	"arb/internal/guard"
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
// concurrently, so the tables sit behind one lock, held across the
// members' steps: a member cache's miss takes its engine's lock inside
// the product's (guard's package doc lists the order).
type product struct {
	offs []int // each member's first bit in the combined query mask
	t    *guard.Mutex[productTables]
}

// productTables is a product's mutable state: the members' step caches,
// the interned tuples, and the tuple being stepped.
type productTables struct {
	caches []*StepCache
	sigs   tuples
	bu     tuples
	td     tuples
	cur    []StateID
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
func newProduct(members []*SharedEngine, offs []int) *product {
	n := len(members)
	t := productTables{cur: make([]StateID, n), sigs: tuples{n: n}, bu: tuples{n: n}, td: tuples{n: n}}
	for _, s := range members {
		// The lane's caches resolve each record once, so the members' need
		// no signature table: SigID goes to their engines directly.
		t.caches = append(t.caches, &StepCache{s: s})
	}
	return &product{offs: offs, t: guard.New(t)}
}

// SigID is the product's signature class: the tuple of the members'.
func (p *product) SigID(sig edb.NodeSig) (id int32) {
	p.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			t.cur[m] = c.s.SigID(sig)
		}
		id = t.sigs.intern(t.cur)
	})
	return id
}

// ReachableStates is the product's δA.
func (p *product) ReachableStates(left, right StateID, sig int32) (id StateID) {
	p.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			l, r := NoState, NoState
			if left != NoState {
				l = t.bu.at(left, m)
			}
			if right != NoState {
				r = t.bu.at(right, m)
			}
			t.cur[m] = c.BUStep(l, r, t.sigs.at(sig, m))
		}
		id = t.bu.intern(t.cur)
	})
	return id
}

// RootTrueSet is the product's top-down start state.
func (p *product) RootTrueSet(bu StateID) (id StateID) {
	p.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			t.cur[m] = c.RootTrueSet(t.bu.at(bu, m))
		}
		id = t.td.intern(t.cur)
	})
	return id
}

// TruePreds is the product's δB_k.
func (p *product) TruePreds(parent, bu StateID, k int) (id StateID) {
	p.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			t.cur[m] = c.TDStep(t.td.at(parent, m), t.bu.at(bu, m), k)
		}
		id = t.td.intern(t.cur)
	})
	return id
}

// QueryMask is the members' query masks side by side.
func (p *product) QueryMask(td StateID) (mask uint64) {
	p.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			mask |= c.QueryMask(t.td.at(td, m)) << uint(p.offs[m])
		}
	})
	return mask
}

// Verdict is the members' one-scan verdicts side by side: known only
// where every member's is.
func (p *product) Verdict(bu StateID, root bool) (mask uint64, ok bool) {
	p.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			v, known := c.Verdict(t.bu.at(bu, m), root)
			if !known {
				mask = 0
				return
			}
			mask |= v << uint(p.offs[m])
		}
		ok = true
	})
	return mask, ok
}

// state interns a tuple of member bottom-up states: the substitute state
// of a pruned extent is the tuple of the members' own.
func (p *product) state(members []StateID) (id StateID) {
	p.t.Do(func(t *productTables) { id = t.bu.intern(members) })
	return id
}

// lane is the members of a disk run that step one automaton: st is the
// member's SharedEngine for a lane of one, the members' product otherwise.
type lane struct {
	st      stepper
	names   *tree.Names
	members []int     // indices into the run's members
	offs    []int     // each member's first bit in the lane's query mask
	nq      int       // query predicates in all
	aux     AuxPlanes // the planes its one member reads; nil for none
	// slot is the lane's region of one attempt's state file, or -1 when
	// its bottom-up states decide its selections and phase 2 skips it. A
	// forward attempt has no state file, and every lane a slot: all of
	// them take part in phase 2.
	slot int
}

// lanesFor splits a run's members into lanes, greedily in member order: a
// lane holds at most maxLaneQueries query predicates, and a member that
// reads aux input steps alone with its planes — the product's signature
// classes carry no aux bits.
func lanesFor(members []BatchMember, aux []AuxPlanes, rs *RunStats) []lane {
	var lanes []lane
	var cur []int
	nq := 0
	flush := func() {
		if len(cur) > 0 {
			lanes = append(lanes, newLane(members, cur, rs))
			cur, nq = nil, 0
		}
	}
	for m, bm := range members {
		alone := bm.AuxInSlot >= 0
		q := len(bm.E.c.Queries)
		if alone || nq+q > maxLaneQueries {
			flush()
		}
		cur, nq = append(cur, m), nq+q
		if alone {
			flush()
			lanes[len(lanes)-1].aux = aux[bm.AuxInSlot]
		}
	}
	flush()
	return lanes
}

func newLane(members []BatchMember, idx []int, rs *RunStats) lane {
	l := lane{names: members[idx[0]].E.names, members: idx}
	shared := make([]*SharedEngine, len(idx))
	for j, m := range idx {
		shared[j] = members[m].E.ShareTo(rs)
		l.offs = append(l.offs, l.nq)
		l.nq += len(members[m].E.c.Queries)
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
