// Bottom-up-determined selection (this file) lets a run answer in one scan:
// a static analysis over the compiled automata decides whether a node's
// bottom-up state alone fixes which query predicates select it — and if
// so, records the query mask per bottom-up state. Phase 1 then marks each
// node from the state it has just computed, and neither the state file nor
// phase 2 is needed (pardisk.go).
//
// Node-local queries qualify: label selections, //a[b]-style filters
// (the filter's witnesses sit below the node, so its bottom-up state
// holds them). Root-path conditions do not — whether a node lies on a
// matching path from the root is a top-down fact.
//
// Soundness rests on the closure walk selsum.go shares (closeLabels): it
// enumerates every bottom-up state a non-root subtree or a root can reach
// over the program's alphabet and every top-down state any parent state
// can hand any child state. The program is admitted only when, for each
// non-root bottom-up state, every top-down step into it yields the same
// query mask; a root's mask is its start state's, a function of its
// bottom-up state. The walk over-approximates what real documents reach, so
// an inconsistency can only reject a program, never admit a wrong verdict.
// A state a run meets outside the walk cannot happen; should one appear
// anyway, the run starts over with two scans (errTwoScans).
package core

import (
	"errors"

	"arb/internal/tree"
)

// errTwoScans ends a one-scan attempt that met a bottom-up state the
// analysis did not cover; the driver reruns it with phase 2.
var errTwoScans = errors.New("core: bottom-up state outside the one-scan analysis")

// oneScanOff forces every run through both phases. A variable only so the
// package tests can check one-scan answers against forced two-scan ones.
var oneScanOff = false

// oneScanAnalysis is the per-engine verdict table, computed once and
// cached: the query mask of a node in bottom-up state s is child[s] at a
// non-root node and root[s] at the root, where the walk reached s in that
// position.
type oneScanAnalysis struct {
	ok          bool
	child, root verdicts
}

// verdicts maps bottom-up states to query masks, densely by state id.
type verdicts struct {
	mask  []uint64
	known []bool
}

func (v *verdicts) set(s StateID, mask uint64) bool {
	for int(s) >= len(v.known) {
		v.mask, v.known = append(v.mask, 0), append(v.known, false)
	}
	if v.known[s] {
		return v.mask[s] == mask
	}
	v.mask[s], v.known[s] = mask, true
	return true
}

func (v *verdicts) get(s StateID) (uint64, bool) {
	if s < 0 || int(s) >= len(v.known) || !v.known[s] {
		return 0, false
	}
	return v.mask[s], true
}

// verdict is the query mask of a node in bottom-up state bu (at the root,
// or not), and whether the analysis covered that state.
func (a *oneScanAnalysis) verdict(bu StateID, root bool) (uint64, bool) {
	if !a.ok {
		return 0, false
	}
	if root {
		return a.root.get(bu)
	}
	return a.child.get(bu)
}

// lockedOneScan runs oneScanAnalysis under the engine's write lock, so the
// verdicts may be computed while other runs of the engine are in flight.
func (e *Engine) lockedOneScan() *oneScanAnalysis {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.oneScanAnalysis()
}

// OneScan reports whether the engine's selection is decided by bottom-up
// states alone, so a run without aux input, marked output or kept states
// answers in one scan. The analysis is computed once and cached.
func (e *Engine) OneScan() bool { return e.lockedOneScan().ok }

// oneScanAnalysis computes (and caches) the engine's one-scan verdicts. It
// interns synthetic states and transitions into the engine's tables, so it
// must run while the caller holds the engine's write lock (lockedOneScan)
// or owns the engine exclusively.
//
// arblint:holds mu
func (e *Engine) oneScanAnalysis() *oneScanAnalysis {
	if e.onescan != nil {
		return e.onescan
	}
	a := &oneScanAnalysis{}
	e.onescan = a
	_, ok := e.closeLabels(false, func(_ tree.Label, bu, td StateID) bool {
		return a.root.set(bu, e.queryMask(td))
	}, func(bu StateID, _ map[tree.Label]bool, td StateID) bool {
		return a.child.set(bu, e.queryMask(td))
	})
	if !ok {
		*a = oneScanAnalysis{}
	}
	a.ok = ok
	return a
}
