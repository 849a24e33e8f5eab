package core

import (
	"arb/internal/edb"
)

// SharedEngine adapts an Engine for concurrent use: lookups of
// already-computed states and transitions read the tables under the read
// lock; lazily computing a new transition writes them under the write
// lock. Tree automata admit parallel evaluation naturally — runs on
// disjoint subtrees are independent (Section 6.2) — and because
// transition tables converge quickly, the write lock is rarely contended
// after warm-up.
//
// The lock is the engine's own, so any number of SharedEngine views of
// one engine — workers of one run, or entirely separate overlapping runs
// (a reentrant PreparedQuery, a PreparedBatch sharing a scalar
// handle's automata) — synchronise with each other. The per-node loops
// never call a view directly: they step a StepCache (takeCache), whose
// misses are the only calls that reach the lock.
type SharedEngine struct {
	e  *Engine
	rs *RunStats // per-run attribution sink; nil discards
}

// Share returns a concurrent view of the engine. Views are cheap and any
// number may exist at once; they all serialise through the engine's lock.
func (e *Engine) Share() *SharedEngine { return &SharedEngine{e: e} }

// ShareTo is Share with per-run attribution: every transition or state
// the view's slow paths lazily compute is credited to rs as well as to
// the engine's cumulative stats. The delta is taken inside the write
// lock around the raw call, so it contains exactly this call's work —
// overlapping runs on one engine each see precisely what their own
// cache misses cost, where deltas of the cumulative Stats would
// misattribute concurrent work.
func (e *Engine) ShareTo(rs *RunStats) *SharedEngine { return &SharedEngine{e: e, rs: rs} }

// Engine returns the wrapped engine for single-threaded use (statistics,
// state inspection) once concurrent work has finished.
func (s *SharedEngine) Engine() *Engine { return s.e }

// SigID is the concurrent signature interning: the engine's alphabet
// symbol for a node signature (automaton.SigID).
func (s *SharedEngine) SigID(sig edb.NodeSig) (id int32) {
	var ok bool
	s.e.tables.Read(func(t *automaton) { id, ok = t.sigIndex[sig] })
	if !ok {
		s.e.tables.Write(func(t *automaton) { id = t.SigID(sig) })
	}
	return id
}

// ReachableStates is the concurrent δA: the bottom-up state for the given
// child states and signature class.
func (s *SharedEngine) ReachableStates(left, right StateID, sigID int32) (id StateID) {
	var ok bool
	s.e.tables.Read(func(t *automaton) { id, ok = t.buTrans[buKey{left, right, sigID}] })
	if ok {
		return id
	}
	return s.compute(func(t *automaton) StateID { return t.ReachableStates(left, right, sigID) })
}

// RootTrueSet is the concurrent step 2 of Algorithm 4.6.
func (s *SharedEngine) RootTrueSet(rootState StateID) StateID {
	return s.compute(func(t *automaton) StateID { return t.RootTrueSet(rootState) })
}

// TruePreds is the concurrent δB.
func (s *SharedEngine) TruePreds(parent, resid StateID, k int) (id StateID) {
	var ok bool
	s.e.tables.Read(func(t *automaton) { id, ok = t.tdTrans[tdKey{parent, resid, uint8(k)}] })
	if ok {
		return id
	}
	return s.compute(func(t *automaton) StateID { return t.TruePreds(parent, resid, k) })
}

// compute runs a transition that may grow the tables under the write
// lock, and credits the view's run with exactly the work the call did:
// the difference of the cumulative statistics around it, taken inside
// the lock.
func (s *SharedEngine) compute(step func(*automaton) StateID) (id StateID) {
	var delta Stats
	s.e.tables.Write(func(t *automaton) {
		before := t.stats
		id = step(t)
		delta = t.stats.Sub(before)
	})
	s.rs.Add(delta)
	return id
}

// QueryMask returns the query-predicate bitmask of a top-down state (bit
// i set iff query i's predicate is in the state).
func (s *SharedEngine) QueryMask(td StateID) (mask uint64) {
	s.e.tables.Read(func(t *automaton) { mask = t.queryMask(td) })
	return mask
}

// Verdict is the engine's one-scan verdict for bottom-up state bu
// (analysis.go), looked up by its residual program: false when the
// analysis did not admit the program, and for states it did not reach.
func (s *SharedEngine) Verdict(bu StateID, root bool) (uint64, bool) {
	a := s.e.analysis()
	if !a.oneScan {
		return 0, false
	}
	var k string
	s.e.tables.Read(func(t *automaton) { k = t.buStates[bu].Key() })
	v := a.child
	if root {
		v = a.root
	}
	mask, ok := v[k]
	return mask, ok
}
