package core

import (
	"arb/internal/edb"
)

// SharedEngine adapts an Engine for concurrent use: lookups of
// already-computed states and transitions take a read lock; lazily
// computing a new transition takes the write lock. Tree automata admit
// parallel evaluation naturally — runs on disjoint subtrees are
// independent (Section 6.2) — and because transition tables converge
// quickly, the write lock is rarely contended after warm-up.
//
// The locks are the engine's own, so any number of SharedEngine views of
// one engine — workers of one run, or entirely separate overlapping runs
// (a reentrant PreparedQuery, a PreparedBatch sharing a scalar
// handle's automata) — synchronise with each other. The per-node loops
// never call a view directly: they step a StepCache (NewStepCache), whose
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
// symbol for a node signature (Engine.SigID).
func (s *SharedEngine) SigID(sig edb.NodeSig) int32 {
	s.e.mu.RLock()
	id, ok := s.e.sigIndex[sig]
	s.e.mu.RUnlock()
	if ok {
		return id
	}
	s.e.mu.Lock()
	id = s.e.SigID(sig)
	s.e.mu.Unlock()
	return id
}

// ReachableStates is the concurrent δA: the bottom-up state for the given
// child states and signature class.
func (s *SharedEngine) ReachableStates(left, right StateID, sigID int32) StateID {
	s.e.mu.RLock()
	id, ok := s.e.buTrans[buKey{left, right, sigID}]
	s.e.mu.RUnlock()
	if ok {
		return id
	}

	s.e.mu.Lock()
	before := s.e.statsSnapshot()
	id = s.e.ReachableStates(left, right, sigID)
	delta := s.e.statsSnapshot().Sub(before)
	s.e.mu.Unlock()
	s.rs.Add(delta)
	return id
}

// RootTrueSet is the concurrent step 2 of Algorithm 4.6.
func (s *SharedEngine) RootTrueSet(rootState StateID) StateID {
	s.e.mu.Lock()
	before := s.e.statsSnapshot()
	id := s.e.RootTrueSet(rootState)
	delta := s.e.statsSnapshot().Sub(before)
	s.e.mu.Unlock()
	s.rs.Add(delta)
	return id
}

// TruePreds is the concurrent δB.
func (s *SharedEngine) TruePreds(parent, resid StateID, k int) StateID {
	s.e.mu.RLock()
	if id, ok := s.e.tdTrans[tdKey{parent, resid, uint8(k)}]; ok {
		s.e.mu.RUnlock()
		return id
	}
	s.e.mu.RUnlock()

	s.e.mu.Lock()
	before := s.e.statsSnapshot()
	id := s.e.TruePreds(parent, resid, k)
	delta := s.e.statsSnapshot().Sub(before)
	s.e.mu.Unlock()
	s.rs.Add(delta)
	return id
}

// QueryMask returns the query-predicate bitmask of a top-down state (bit
// i set iff query i's predicate is in the state).
func (s *SharedEngine) QueryMask(td StateID) uint64 {
	s.e.mu.RLock()
	defer s.e.mu.RUnlock()
	return s.e.queryMask(td)
}

// Verdict is the engine's one-scan verdict for bottom-up state bu
// (analysis.go), looked up by its residual program: false when the
// analysis did not admit the program, and for states it did not reach.
func (s *SharedEngine) Verdict(bu StateID, root bool) (uint64, bool) {
	a := s.e.analysis()
	if !a.oneScan {
		return 0, false
	}
	s.e.mu.RLock()
	k := s.e.buStates[bu].Key()
	s.e.mu.RUnlock()
	v := a.child
	if root {
		v = a.root
	}
	mask, ok := v[k]
	return mask, ok
}
