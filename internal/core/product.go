package core

import (
	"math"
	"slices"
	"sync/atomic"

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
// valid as long as the product lives: a run's own product dies with the
// run, while a batch that keeps its products (Products) steps the same
// tuples, tables and leader cache on every run. A member's own states,
// computed on the product's misses, stay the engine-global ids they are in
// a scalar run, so a batch computes exactly the transitions its members
// would alone.

// maxLaneQueries bounds a lane's combined query mask, one uint64.
const maxLaneQueries = 64

// product is the product automaton of one lane: each miss steps every
// member through the member's own StepCache and interns the resulting
// tuple. The lane's caches miss concurrently — the worker caches of one
// run, and the runs that share a kept product — so the tables sit behind
// one lock, held across the members' steps: a member cache's miss takes
// its engine's lock inside the product's (guard's package doc lists the
// order). A run steps the product through a productView of its own.
type product struct {
	engines []*Engine // the lane's member engines, its key in Products
	offs    []int     // each member's first bit in the combined query mask
	t       *guard.Mutex[productTables]
	warm    warmCache // the lane's leader cache between runs
	// full is set once the tuples outgrow maxDenseEntries: Products then
	// drops the product for a fresh one.
	full atomic.Bool
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
	for id := int32(0); int(id) < t.len(); id++ {
		i := hashTuple(t.flat[int(id)*t.n:int(id+1)*t.n]) & (size - 1)
		for t.slots[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		t.slots[i] = id + 1
	}
}

// len is the number of tuples interned.
func (t *tuples) len() int { return len(t.flat) / t.n }

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

// newProduct builds the product of the member engines' automata.
func newProduct(engines []*Engine, offs []int) *product {
	n := len(engines)
	t := productTables{cur: make([]StateID, n), sigs: tuples{n: n}, bu: tuples{n: n}, td: tuples{n: n}}
	for range engines {
		// The lane's caches resolve each record once, so the members' need
		// no signature table: SigID goes to their engines directly. Each
		// step binds them to the stepping run's views (productView.do).
		t.caches = append(t.caches, &StepCache{})
	}
	return &product{engines: engines, offs: offs, t: guard.New(t)}
}

// buStates is the number of bottom-up tuples interned so far (the disk
// driver sizes a run's state width from it).
func (p *product) buStates() (n int) {
	p.t.Do(func(t *productTables) { n = t.bu.len() })
	return n
}

// Products keeps a batch's lane products between its runs, keyed by each
// lane's member engines, so a batch's second and later runs step warm
// product tables instead of re-interning what the first run interned. A
// product is dropped with its Products — xpath.Batch holds one, rebuilt
// when its members recompile against a new name table — and replaced by
// a fresh one once its tuples outgrow maxDenseEntries. The zero value
// keeps none yet.
type Products struct {
	kept guard.Mutex[[]*product]
}

// product returns the product of engines ps keeps, or a fresh one it keeps
// from now on; a nil ps keeps nothing, and every run gets a fresh product.
func (ps *Products) product(engines []*Engine, offs []int) (p *product) {
	if ps == nil {
		return newProduct(engines, offs)
	}
	ps.kept.Do(func(kept *[]*product) {
		i := slices.IndexFunc(*kept, func(k *product) bool { return slices.Equal(k.engines, engines) })
		switch {
		case i < 0:
			p = newProduct(engines, offs)
			*kept = append(*kept, p)
		case (*kept)[i].full.Load():
			p = newProduct(engines, offs)
			(*kept)[i] = p
		default:
			p = (*kept)[i]
		}
	})
	return p
}

// productView is one run's stepper over a product: its misses step the
// members through the run's own SharedEngine views, so every transition
// a member computes is credited to the run whose miss computed it, however
// many runs share the product, and so is every tuple it interns (rs).
type productView struct {
	*product
	shared []*SharedEngine
	rs     *RunStats
}

// do runs f on the product's tables, the member caches bound to v's run,
// and credits the run with the states f interned.
func (v *productView) do(f func(t *productTables)) {
	var interned int
	v.t.Do(func(t *productTables) {
		for m, c := range t.caches {
			c.s = v.shared[m]
		}
		n := t.bu.len() + t.td.len()
		f(t)
		interned = t.bu.len() + t.td.len() - n
		if len(t.sigs.flat)+len(t.bu.flat)+len(t.td.flat) > int(maxDenseEntries) {
			v.full.Store(true)
		}
	})
	if interned > 0 {
		v.rs.Add(Stats{ProductStates: interned})
	}
}

// SigID is the product's signature class: the tuple of the members'.
func (v *productView) SigID(sig edb.NodeSig) (id int32) {
	v.do(func(t *productTables) {
		for m, c := range t.caches {
			t.cur[m] = c.s.SigID(sig)
		}
		id = t.sigs.intern(t.cur)
	})
	return id
}

// ReachableStates is the product's δA.
func (v *productView) ReachableStates(left, right StateID, sig int32) (id StateID) {
	v.do(func(t *productTables) {
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
func (v *productView) RootTrueSet(bu StateID) (id StateID) {
	v.do(func(t *productTables) {
		for m, c := range t.caches {
			t.cur[m] = c.RootTrueSet(t.bu.at(bu, m))
		}
		id = t.td.intern(t.cur)
	})
	return id
}

// TruePreds is the product's δB_k.
func (v *productView) TruePreds(parent, bu StateID, k int) (id StateID) {
	v.do(func(t *productTables) {
		for m, c := range t.caches {
			t.cur[m] = c.TDStep(t.td.at(parent, m), t.bu.at(bu, m), k)
		}
		id = t.td.intern(t.cur)
	})
	return id
}

// QueryMask is the members' query masks side by side.
func (v *productView) QueryMask(td StateID) (mask uint64) {
	v.do(func(t *productTables) {
		for m, c := range t.caches {
			mask |= c.QueryMask(t.td.at(td, m)) << uint(v.offs[m])
		}
	})
	return mask
}

// Verdict is the members' one-scan verdicts side by side: known only
// where every member's is.
func (v *productView) Verdict(bu StateID, root bool) (mask uint64, ok bool) {
	v.do(func(t *productTables) {
		for m, c := range t.caches {
			mv, known := c.Verdict(t.bu.at(bu, m), root)
			if !known {
				mask = 0
				return
			}
			mask |= mv << uint(v.offs[m])
		}
		ok = true
	})
	return mask, ok
}

// state interns a tuple of member bottom-up states: the substitute state
// of a pruned extent is the tuple of the members' own.
func (v *productView) state(members []StateID) (id StateID) {
	v.do(func(t *productTables) { id = t.bu.intern(members) })
	return id
}

// lane is the members of a disk run that step one automaton: st is the
// member's SharedEngine for a lane of one, the run's view of the members'
// product otherwise, and warm is where that automaton keeps its leader
// cache between runs.
type lane struct {
	st      stepper
	warm    *warmCache
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
// classes carry no aux bits. A lane of several members steps the product
// that kept holds for its engines, or a fresh one where kept is nil.
func lanesFor(members []BatchMember, aux []AuxPlanes, rs *RunStats, kept *Products) []lane {
	var lanes []lane
	var cur []int
	nq := 0
	flush := func() {
		if len(cur) > 0 {
			lanes = append(lanes, newLane(members, cur, rs, kept))
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

func newLane(members []BatchMember, idx []int, rs *RunStats, kept *Products) lane {
	l := lane{names: members[idx[0]].E.names, members: idx}
	engines := make([]*Engine, len(idx))
	shared := make([]*SharedEngine, len(idx))
	for j, m := range idx {
		engines[j] = members[m].E
		shared[j] = engines[j].ShareTo(rs)
		l.offs = append(l.offs, l.nq)
		l.nq += len(engines[j].c.Queries)
	}
	if len(idx) == 1 {
		l.st, l.warm = shared[0], &engines[0].warm
	} else {
		p := kept.product(engines, l.offs)
		l.st, l.warm = &productView{product: p, shared: shared, rs: rs}, &p.warm
	}
	return l
}

// sub is the lane's substitute state for the extents plan prunes.
func (l *lane) sub(plan *PrunePlan) StateID {
	if plan == nil {
		return NoState
	}
	v, ok := l.st.(*productView)
	if !ok {
		return plan.Sub(l.members[0])
	}
	subs := make([]StateID, len(l.members))
	for j, m := range l.members {
		subs[j] = plan.Sub(m)
	}
	return v.state(subs)
}
