package core

import (
	"sync"
	"time"

	"arb/internal/edb"
	"arb/internal/horn"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// StateID identifies a state of the deterministic bottom-up automaton A (a
// canonical residual program) or of the top-down automaton B (a canonical
// set of true predicates). The pseudo-state ⊥ for non-existent children is
// NoState.
type StateID = int32

// NoState is the ⊥ pseudo-state.
const NoState StateID = -1

type buKey struct {
	left, right StateID
	sig         int32
}

type tdKey struct {
	parent StateID // top-down state of the parent (true-predicate set)
	resid  StateID // bottom-up state of the child (residual program)
	k      uint8   // 1 = first child, 2 = second child
}

// Stats reports the work done by an engine run; the fields mirror the
// columns of the paper's Figure 6.
type Stats struct {
	Phase1Time    time.Duration // bottom-up pass, column (4)
	Phase2Time    time.Duration // top-down pass, column (6)
	BUTransitions int           // lazily computed transitions of A, column (5)
	TDTransitions int           // lazily computed transitions of B, column (7)
	BUStates      int           // residual programs interned
	TDStates      int           // true-predicate sets interned
	Nodes         int64
	// PrunedNodes counts the nodes selectivity-aware pruning proved
	// irrelevant and seeked past (they are included in Nodes): the
	// engine's visible measure of how much of the document a query
	// actually needed, on every strategy including in-memory runs.
	PrunedNodes int64
}

// Add accumulates o into s (summing every column).
func (s *Stats) Add(o Stats) {
	s.Phase1Time += o.Phase1Time
	s.Phase2Time += o.Phase2Time
	s.BUTransitions += o.BUTransitions
	s.TDTransitions += o.TDTransitions
	s.BUStates += o.BUStates
	s.TDStates += o.TDStates
	s.Nodes += o.Nodes
	s.PrunedNodes += o.PrunedNodes
}

// Sub returns the column-wise difference s - o; with o a snapshot taken
// before a run, the result is the work of that run alone.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Phase1Time:    s.Phase1Time - o.Phase1Time,
		Phase2Time:    s.Phase2Time - o.Phase2Time,
		BUTransitions: s.BUTransitions - o.BUTransitions,
		TDTransitions: s.TDTransitions - o.TDTransitions,
		BUStates:      s.BUStates - o.BUStates,
		TDStates:      s.TDStates - o.TDStates,
		Nodes:         s.Nodes - o.Nodes,
		PrunedNodes:   s.PrunedNodes - o.PrunedNodes,
	}
}

// Engine evaluates one compiled TMNF program over any number of trees.
// As in the Arb system, it maintains four hash tables: states and
// transitions for each of the two automata; transition functions are
// computed lazily by ComputeReachableStates and ComputeTruePreds and are
// reused across nodes and across trees (footnote 15 of the paper).
//
// Concurrency: the engine's tables are guarded by one RWMutex, and every
// evaluation driver — scalar or batch, sequential or parallel — steps a
// private StepCache (dense per-run tables, no locks when warm) in front of
// a SharedEngine view (Share), which takes the lock on the cache's misses
// — so any number of runs of one engine may overlap, and transitions
// computed by one run serve all.
// The raw transition methods (ReachableStates, TruePreds, ...) do not
// lock; they are for callers that hold mu or own the engine exclusively.
type Engine struct {
	// mu guards every lazily grown table below. The raw interning and
	// transition methods declare the contract arblint:holds mu — they run
	// either under SharedEngine (which takes mu) or on an engine the
	// caller owns exclusively; lockdiscipline enforces the split.
	mu     sync.RWMutex
	c      *Compiled
	solver *horn.Solver

	// Bottom-up automaton A: states are canonical residual programs.
	buStates []*horn.Program    // guarded by: mu
	buIndex  map[string]StateID // guarded by: mu
	buTrans  map[buKey]StateID  // guarded by: mu

	// Node-signature interning; sig ids key the transition table and map
	// to precomputed EDB fact sets. Signatures with identical fact sets
	// share one id: the automaton alphabet is 2^sigma for the program's
	// own sigma (Definition 4.2), so all labels the program does not
	// mention collapse into one equivalence class.
	sigIndex  map[edb.NodeSig]int32 // guarded by: mu
	factIndex map[string]int32      // guarded by: mu
	sigFacts  [][]horn.Atom         // guarded by: mu

	// Top-down automaton B: states are canonical sorted sets of local
	// atoms (the predicates true at a node).
	tdStates [][]horn.Atom      // guarded by: mu
	tdIndex  map[string]StateID // guarded by: mu
	tdTrans  map[tdKey]StateID  // guarded by: mu
	// tdQuery caches, per top-down state, the bitmask of query predicates
	// it contains (bit i = Queries[i]).
	tdQuery []uint64 // guarded by: mu

	names *tree.Names

	stats Stats // guarded by: mu

	// analysis is the engine's plan (analysis.go): prune, subsumption and
	// one-scan verdicts, computed on first use by a walk over tables of its
	// own and read without locks.
	analysis func() *analysis

	// scratch rule buffer reused across transition computations
	ruleBuf []horn.Rule // guarded by: mu
}

// NewEngine returns an engine for the compiled program. The name table is
// needed to resolve Label[..] tests; it must match the databases the
// engine will be run on.
func NewEngine(c *Compiled, names *tree.Names) *Engine {
	e := &Engine{
		c:         c,
		solver:    horn.NewSolver(c.U),
		buIndex:   make(map[string]StateID),
		buTrans:   make(map[buKey]StateID),
		sigIndex:  make(map[edb.NodeSig]int32),
		factIndex: make(map[string]int32),
		tdIndex:   make(map[string]StateID),
		tdTrans:   make(map[tdKey]StateID),
		names:     names,
	}
	e.analysis = sync.OnceValue(func() *analysis {
		a := analyze(c, names)
		if a.pruneOK {
			// s* is the one state the analysis adds: prune plans hand it
			// to runs as the state of every skipped extent. No run computed
			// it, so Stats, which the runs' RunStats partition, leave it out.
			e.mu.Lock()
			n := e.stats.BUStates
			a.sub = e.internBU(a.subProg)
			e.stats.BUStates = n
			e.mu.Unlock()
		}
		return a
	})
	return e
}

// Compiled returns the engine's compiled program.
func (e *Engine) Compiled() *Compiled { return e.c }

// Stats returns a snapshot of the statistics accumulated so far, across
// every run of the engine. Per-run attribution under overlapping
// executions goes through RunStats sinks (ShareTo and the drivers' Run
// options), not through deltas of this cumulative snapshot.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stats
}

// addNodes records a finished run's n node visits, pruned of them pruned
// (see Stats.PrunedNodes), in the engine's statistics.
func (e *Engine) addNodes(n, pruned int64) {
	e.mu.Lock()
	e.stats.Nodes += n
	e.stats.PrunedNodes += pruned
	e.mu.Unlock()
}

// addPhaseTimes folds one run's phase wall times into the engine's
// cumulative statistics.
func (e *Engine) addPhaseTimes(p1, p2 time.Duration) {
	e.mu.Lock()
	e.stats.Phase1Time += p1
	e.stats.Phase2Time += p2
	e.mu.Unlock()
}

// statsSnapshot reads the cumulative statistics without locking; the
// ShareTo slow paths bracket raw transition calls with it to compute
// exact per-call deltas.
//
// arblint:holds mu
func (e *Engine) statsSnapshot() Stats { return e.stats }

// BUStateCount returns the number of bottom-up states interned so far
// (the disk driver sizes its on-disk state width from it).
func (e *Engine) BUStateCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.buStates)
}

// SigID interns a node signature, collapsing signatures that satisfy the
// same EDB facts of the program into one alphabet symbol.
//
// arblint:holds mu — the caller holds the engine's write lock
// (SharedEngine) or owns the engine exclusively.
func (e *Engine) SigID(sig edb.NodeSig) int32 {
	if id, ok := e.sigIndex[sig]; ok {
		return id
	}
	facts := e.c.FactsFor(e.names, sig)
	var key []byte
	for _, a := range facts {
		key = appendUvarint(key, uint64(a))
	}
	id, ok := e.factIndex[string(key)]
	if !ok {
		id = int32(len(e.sigFacts))
		e.factIndex[string(key)] = id
		e.sigFacts = append(e.sigFacts, facts)
	}
	e.sigIndex[sig] = id
	return id
}

// internBU hash-conses a canonical residual program into a state of A.
//
// arblint:holds mu
func (e *Engine) internBU(p *horn.Program) StateID {
	k := p.Key()
	if id, ok := e.buIndex[k]; ok {
		return id
	}
	id := StateID(len(e.buStates))
	e.buStates = append(e.buStates, p)
	e.buIndex[k] = id
	e.stats.BUStates++
	return id
}

// BUState returns the residual program of bottom-up state id.
//
// arblint:holds mu
func (e *Engine) BUState(id StateID) *horn.Program { return e.buStates[id] }

// internTD hash-conses a sorted set of local atoms into a state of B.
//
// arblint:holds mu
func (e *Engine) internTD(atoms []horn.Atom) StateID {
	var buf []byte
	for _, a := range atoms {
		buf = appendUvarint(buf, uint64(a))
	}
	k := string(buf)
	if id, ok := e.tdIndex[k]; ok {
		return id
	}
	id := StateID(len(e.tdStates))
	e.tdStates = append(e.tdStates, atoms)
	e.tdIndex[k] = id
	var qmask uint64
	for qi, q := range e.c.Queries {
		for _, a := range atoms {
			if a == q {
				qmask |= 1 << uint(qi)
				break
			}
		}
	}
	e.tdQuery = append(e.tdQuery, qmask)
	e.stats.TDStates++
	return id
}

// TDSet returns the true predicates of top-down state id.
//
// arblint:holds mu
func (e *Engine) TDSet(id StateID) []tmnf.Pred {
	atoms := e.tdStates[id]
	out := make([]tmnf.Pred, len(atoms))
	for i, a := range atoms {
		out[i] = tmnf.Pred(a)
	}
	return out
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// ReachableStates is the transition function δA of the bottom-up
// automaton (procedure ComputeReachableStates, Figure 2), with lazy
// caching: given the states of the two children (NoState for ⊥) and the
// node signature, it returns the state of the node.
//
// arblint:holds mu — the caller holds the engine's write lock
// (SharedEngine) or owns the engine exclusively.
func (e *Engine) ReachableStates(left, right StateID, sigID int32) StateID {
	key := buKey{left, right, sigID}
	if id, ok := e.buTrans[key]; ok {
		return id
	}
	e.stats.BUTransitions++

	u := e.c.U
	rules := e.ruleBuf[:0]
	rules = append(rules, e.c.Local...)
	for _, a := range e.sigFacts[sigID] {
		rules = append(rules, horn.Rule{Head: a})
	}
	if left != NoState {
		rules = append(rules, e.c.Left...)
		rules = append(rules, horn.PushDownProgram(u, 1, e.buStates[left])...)
	}
	if right != NoState {
		rules = append(rules, e.c.Right...)
		rules = append(rules, horn.PushDownProgram(u, 2, e.buStates[right])...)
	}
	e.ruleBuf = rules[:0]

	res := e.solver.LTUR(rules)
	if left != NoState || right != NoState {
		res = horn.Contract(u, res)
	}
	id := e.internBU(res)
	e.buTrans[key] = id
	return id
}

// RootTrueSet extracts the top-down start state s_B from the bottom-up
// state of the root: the predicates true in every reachable STA state,
// i.e. the facts of the root's residual program (step 2 of Algorithm 4.6).
//
// arblint:holds mu
func (e *Engine) RootTrueSet(rootState StateID) StateID {
	return e.internTD(e.buStates[rootState].TruePreds())
}

// TruePreds is the transition function δB_k of the top-down automaton
// (procedure ComputeTruePreds, Figure 3), with lazy caching: given the
// top-down state of the parent, the bottom-up state (residual program) of
// the k-th child, and k, it returns the top-down state of the child.
//
// arblint:holds mu — the caller holds the engine's write lock
// (SharedEngine) or owns the engine exclusively.
func (e *Engine) TruePreds(parent StateID, resid StateID, k int) StateID {
	key := tdKey{parent, resid, uint8(k)}
	if id, ok := e.tdTrans[key]; ok {
		return id
	}
	e.stats.TDTransitions++

	u := e.c.U
	rules := e.ruleBuf[:0]
	if k == 1 {
		rules = append(rules, e.c.Down1...)
	} else {
		rules = append(rules, e.c.Down2...)
	}
	for _, a := range e.tdStates[parent] {
		rules = append(rules, horn.Rule{Head: a})
	}
	rules = append(rules, horn.PushDownProgram(u, k, e.buStates[resid])...)
	e.ruleBuf = rules[:0]

	derived := e.solver.Derivable(rules)
	space := horn.Super1
	if k == 2 {
		space = horn.Super2
	}
	childPreds := horn.PushUpFrom(u, k, horn.PredsInSpace(u, derived, space))
	id := e.internTD(childPreds)
	e.tdTrans[key] = id
	return id
}

// queryMask returns the query-predicate bitmask of a top-down state.
//
// arblint:holds mu
func (e *Engine) queryMask(td StateID) uint64 { return e.tdQuery[td] }
