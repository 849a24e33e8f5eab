package core

import (
	"math/bits"

	"arb/internal/edb"
	"arb/internal/storage"
	"arb/internal/tree"
)

// StepCache is the private, lock-free transition memo every evaluation
// driver steps — one for a run's sequential or leader scan, one per
// worker beside it (each per lane of a batch) — in front of the
// engine's shared, lock-guarded tables. The per-node constant of the scan
// loops lives here: a node's signature resolves straight from its 2-byte
// record bits (an array lookup), and the two transition functions from
// flat tables indexed by their small dense ids. States and signature
// classes are engine-global ids, so caching them locally is sound; tables
// grow geometrically as lazy automata construction discovers states, and
// misses fall through to the SharedEngine, so the cache is semantics-free
// — it can never change which state a step yields — and the warm steady
// state takes no locks at all. The same cache fronts a batch lane's
// product automaton (product.go), whose ids are per-run tuple ids.
type StepCache struct {
	s stepper

	// Signature classes (Engine.SigID) and, in a forward run, bottom-up
	// states (RecState) by record. Non-root signatures without aux bits
	// are indexed directly by label<<2 | child flags, in a table sized from
	// the name table; root or aux-extra signatures (rare: one root per
	// document, aux only on multi-pass members) go through the map, keyed
	// rec | extra<<16 | root<<32.
	byRec  []recEntry
	sigAux map[uint64]int32

	// δA: bu[((l+1)*dimS + (r+1))*dimSig + sig] = state id + 1. Keys the
	// dense table will not grow to hold (maxDenseEntries) live in buMap.
	dimS, dimSig int32
	bu           []StateID
	buMap        map[buKey]StateID

	// δB: td[(parent*dimB + child)*2 + (k-1)] = state id + 1.
	dimP, dimB int32
	td         []StateID
	tdMap      map[tdKey]StateID

	// Query-predicate masks per top-down state.
	masks     []uint64
	maskKnown []bool

	// One-scan verdicts (analysis.go) per non-root bottom-up state.
	verdicts     []uint64
	verdictKnown []bool
}

// recEntry is what a StepCache knows of one non-root record: its
// signature class and, once a forward run has asked, its bottom-up state —
// side by side, so the kernel that needs one loads it with no second
// record-indexed lookup.
type recEntry struct {
	sig int32   // 0 = unknown, else sig id + 1
	bu  StateID // 0 = unknown, else state id + 1
}

// maxDenseEntries bounds each dense transition table (4 MB of StateIDs):
// automata in practice stay far below it, and pathological state or
// signature counts degrade to hash lookups instead of huge allocations.
// A variable only so the package tests can force the map fallback.
var maxDenseEntries int64 = 1 << 20

// stepper is what a StepCache's misses call: a SharedEngine, or the
// product automaton of a batch lane. Only the out-of-line miss paths go
// through it, so the inlined table hits cost the same either way.
type stepper interface {
	SigID(sig edb.NodeSig) int32
	ReachableStates(left, right StateID, sig int32) StateID
	RootTrueSet(bu StateID) StateID
	TruePreds(parent, bu StateID, k int) StateID
	QueryMask(td StateID) uint64
	// Verdict is the query mask of a node in bottom-up state bu, at the
	// root or not, and false where the one-scan analysis did not admit
	// the program or did not reach the state.
	Verdict(bu StateID, root bool) (uint64, bool)
}

// NewStepCache returns a fresh private cache in front of the shared
// engine, for one run or one worker of a run.
func (s *SharedEngine) NewStepCache() *StepCache { return newStepCache(s, s.e.names) }

// newStepCache sizes the signature table from the name table the
// stepper's engines resolve labels against.
func newStepCache(s stepper, names *tree.Names) *StepCache {
	labels := int(tree.FirstNamedLabel)
	if names != nil {
		labels += names.Len()
	}
	return &StepCache{s: s, byRec: make([]recEntry, labels<<2)}
}

// SigID resolves the signature given by a node's record bits (label and
// child flags, storage.Record.Encode form), root-ness and aux mask to the
// engine's signature class, for BUStep.
func (c *StepCache) SigID(rec uint16, root bool, extra uint16) int32 {
	if !root && extra == 0 {
		if s := c.sigHit(rec); s != 0 {
			return s - 1
		}
		i := int(bits.RotateLeft16(rec, 2))
		if i >= len(c.byRec) {
			// A label past the name table the cache was sized from.
			c.byRec = append(c.byRec, make([]recEntry, i+1-len(c.byRec))...)
		}
		s := c.internSig(rec, root, extra)
		c.byRec[i].sig = s + 1
		return s
	}
	key := uint64(rec) | uint64(extra)<<16
	if root {
		key |= 1 << 32
	}
	if s, ok := c.sigAux[key]; ok {
		return s
	}
	s := c.internSig(rec, root, extra)
	if c.sigAux == nil {
		c.sigAux = map[uint64]int32{}
	}
	c.sigAux[key] = s
	return s
}

// sigHit, recHit, buHit and tdHit are the table lookups of SigID,
// RecState, BUStep and TDStep on their own: each returns its dense table's
// entry — the id + 1 — or 0 where the table has none. SigID, RecState,
// BUStep and TDStep are beyond the compiler's inlining budget, a lookup
// without a call in it is not, so a loop that steps millions of nodes
// tries the hit first and calls the full method for the rest (the window
// kernels do; QueryMask inlines as it is). sigHit and recHit are for
// non-root records without aux bits only.
func (c *StepCache) sigHit(rec uint16) int32 {
	// The child flags are the record's two top bits, so rotating them to
	// the bottom gives label<<2 | flags: dense in the label.
	if i := int(bits.RotateLeft16(rec, 2)); i < len(c.byRec) {
		return c.byRec[i].sig
	}
	return 0
}

func (c *StepCache) recHit(rec uint16) StateID {
	if i := int(bits.RotateLeft16(rec, 2)); i < len(c.byRec) {
		return c.byRec[i].bu
	}
	return 0
}

func (c *StepCache) buHit(left, right StateID, sig int32) StateID {
	if l1, r1 := left+1, right+1; l1 < c.dimS && r1 < c.dimS && sig < c.dimSig {
		return c.bu[(l1*c.dimS+r1)*c.dimSig+sig]
	}
	return 0
}

func (c *StepCache) tdHit(parent, bu StateID, k int) StateID {
	if parent < c.dimP && bu < c.dimB {
		return c.td[(parent*c.dimB+bu)*2+StateID(k-1)]
	}
	return 0
}

func (c *StepCache) internSig(rec uint16, root bool, extra uint16) int32 {
	r := storage.DecodeRecord(rec)
	return c.s.SigID(edb.NodeSig{
		Label:     tree.Label(r.Label),
		HasFirst:  r.HasFirst,
		HasSecond: r.HasSecond,
		IsRoot:    root,
		Extra:     extra,
	})
}

// BUStep is the cached δA on a signature class.
func (c *StepCache) BUStep(left, right StateID, sig int32) StateID {
	if id := c.buHit(left, right, sig); id != 0 {
		return id - 1
	}
	if id, ok := c.buMap[buKey{left, right, sig}]; ok {
		return id
	}
	id := c.s.ReachableStates(left, right, sig)
	c.storeBU(left, right, sig, id)
	return id
}

func (c *StepCache) storeBU(left, right StateID, sig int32, id StateID) {
	l1, r1 := left+1, right+1
	if l1 >= c.dimS || r1 >= c.dimS || sig >= c.dimSig {
		if !c.growBU(max(l1, r1), sig) {
			if c.buMap == nil {
				c.buMap = map[buKey]StateID{}
			}
			c.buMap[buKey{left, right, sig}] = id
			return
		}
	}
	c.bu[(l1*c.dimS+r1)*c.dimSig+sig] = id + 1
}

// growBU widens the dense δA table to cover state needS and signature
// needSig, reporting false when that would exceed the dense budget.
func (c *StepCache) growBU(needS StateID, needSig int32) bool {
	newS, newSig := c.dimS, c.dimSig
	if newS == 0 {
		newS, newSig = 8, 8
	}
	for newS <= int32(needS) {
		newS *= 2
	}
	for newSig <= needSig {
		newSig *= 2
	}
	if int64(newS)*int64(newS)*int64(newSig) > maxDenseEntries {
		return false
	}
	nb := make([]StateID, int(newS)*int(newS)*int(newSig))
	for l := int32(0); l < c.dimS; l++ {
		for r := int32(0); r < c.dimS; r++ {
			copy(nb[(l*newS+r)*newSig:(l*newS+r)*newSig+c.dimSig],
				c.bu[(l*c.dimS+r)*c.dimSig:(l*c.dimS+r+1)*c.dimSig])
		}
	}
	c.bu, c.dimS, c.dimSig = nb, newS, newSig
	return true
}

// RecState is the bottom-up state of a node with record bits rec, at the
// root or not, in a forward run: one δA step with a leaf's state standing
// in for each child the record announces, which the forward verdict
// (analysis.go) proves is every such node's state. false for a root with a
// second child, a shape the verdict leaves out.
func (c *StepCache) RecState(rec uint16, root bool) (StateID, bool) {
	if root && rec&storage.FlagSecond != 0 {
		return NoState, false
	}
	if !root {
		if s := c.recHit(rec); s != 0 {
			return s - 1, true
		}
	}
	left, right := NoState, NoState
	if kids := rec & (storage.FlagFirst | storage.FlagSecond); kids != 0 {
		leaf := c.BUStep(NoState, NoState, c.SigID(rec&^kids, false, 0))
		if kids&storage.FlagFirst != 0 {
			left = leaf
		}
		if kids&storage.FlagSecond != 0 {
			right = leaf
		}
	}
	s := c.BUStep(left, right, c.SigID(rec, root, 0))
	if !root {
		c.byRec[bits.RotateLeft16(rec, 2)].bu = s + 1 // SigID sized the table
	}
	return s, true
}

// TDStep is the cached δB_k.
func (c *StepCache) TDStep(parent, bu StateID, k int) StateID {
	if id := c.tdHit(parent, bu, k); id != 0 {
		return id - 1
	}
	if id, ok := c.tdMap[tdKey{parent, bu, uint8(k)}]; ok {
		return id
	}
	id := c.s.TruePreds(parent, bu, k)
	c.storeTD(parent, bu, k, id)
	return id
}

func (c *StepCache) storeTD(parent, bu StateID, k int, id StateID) {
	if parent >= c.dimP || bu >= c.dimB {
		newP, newB := c.dimP, c.dimB
		if newP == 0 {
			newP, newB = 8, 8
		}
		for newP <= parent {
			newP *= 2
		}
		for newB <= bu {
			newB *= 2
		}
		if int64(newP)*int64(newB)*2 > maxDenseEntries {
			if c.tdMap == nil {
				c.tdMap = map[tdKey]StateID{}
			}
			c.tdMap[tdKey{parent, bu, uint8(k)}] = id
			return
		}
		nt := make([]StateID, int(newP)*int(newB)*2)
		for p := int32(0); p < c.dimP; p++ {
			copy(nt[p*newB*2:p*newB*2+c.dimB*2], c.td[p*c.dimB*2:(p+1)*c.dimB*2])
		}
		c.td, c.dimP, c.dimB = nt, newP, newB
	}
	c.td[(parent*c.dimB+bu)*2+StateID(k-1)] = id + 1
}

// RootTrueSet is step 2 of Algorithm 4.6 (uncached: once per run).
func (c *StepCache) RootTrueSet(bu StateID) StateID { return c.s.RootTrueSet(bu) }

// QueryMask returns the query-predicate bitmask of a top-down state. With
// the miss in its own method it inlines into the drivers' loops.
func (c *StepCache) QueryMask(td StateID) uint64 {
	if int(td) < len(c.maskKnown) && c.maskKnown[td] {
		return c.masks[td]
	}
	return c.maskMiss(td)
}

func (c *StepCache) maskMiss(td StateID) uint64 {
	m := c.s.QueryMask(td)
	for int(td) >= len(c.maskKnown) {
		c.maskKnown = append(c.maskKnown, false)
		c.masks = append(c.masks, 0)
	}
	c.maskKnown[td], c.masks[td] = true, m
	return m
}

// Verdict is the cached one-scan verdict of bottom-up state bu (stepper's
// Verdict); the root's goes to the stepper, once per run. verdictHit is its
// inlined table hit for non-root states.
func (c *StepCache) Verdict(bu StateID, root bool) (uint64, bool) {
	if root {
		return c.s.Verdict(bu, true)
	}
	if m, ok := c.verdictHit(bu); ok {
		return m, true
	}
	m, ok := c.s.Verdict(bu, false)
	if !ok {
		return 0, false
	}
	for int(bu) >= len(c.verdictKnown) {
		c.verdictKnown = append(c.verdictKnown, false)
		c.verdicts = append(c.verdicts, 0)
	}
	c.verdictKnown[bu], c.verdicts[bu] = true, m
	return m, true
}

func (c *StepCache) verdictHit(bu StateID) (uint64, bool) {
	if int(bu) < len(c.verdictKnown) && c.verdictKnown[bu] {
		return c.verdicts[bu], true
	}
	return 0, false
}
