package core

import (
	"sync"
	"time"

	"arb/internal/edb"
	"arb/internal/guard"
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
	// ProductStates counts the product tuples, bottom-up and top-down, a
	// batch run's lanes interned (product.go): none for a run whose
	// batch kept warm products, none for a scalar run.
	ProductStates int
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
	s.ProductStates += o.ProductStates
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
		ProductStates: s.ProductStates - o.ProductStates,
	}
}

// Engine evaluates one compiled TMNF program over any number of trees.
// As in the Arb system, it maintains four hash tables: states and
// transitions for each of the two automata; transition functions are
// computed lazily by ComputeReachableStates and ComputeTruePreds and are
// reused across nodes and across trees (footnote 15 of the paper).
//
// Concurrency: the tables are an automaton value behind one guard.RWMutex,
// reachable only through its accessors. Every evaluation driver — scalar
// or batch, sequential or parallel — steps a private StepCache (dense
// tables, no locks when warm) in front of a SharedEngine view (Share),
// which takes the lock on the cache's misses — so any number of runs of
// one engine may overlap, and transitions computed by one run serve all.
// The engine keeps one such cache between runs (warm): a run's leader
// takes it and hands it back, so a warm run's leader steps dense tables
// from its first node and takes no engine lock; an overlapping run, or a
// worker, starts with a cache of its own.
type Engine struct {
	c     *Compiled
	names *tree.Names

	// tables holds every lazily grown table and the cumulative Stats.
	tables *guard.RWMutex[automaton]

	// analysis is the engine's plan (analysis.go): prune, subsumption and
	// one-scan verdicts, computed on first use by a walk over an automaton
	// of its own and read without locks.
	analysis func() *analysis

	// warm is the step cache a run's leader takes and hands back, so the
	// next run of a lane of this engine alone starts with dense tables.
	warm warmCache
}

// automaton is the pair of lazily built automata of one compiled program
// over one name table: their states, transitions and statistics. An
// Engine guards its automaton; the analysis walk steps a bare one it owns.
type automaton struct {
	c      *Compiled
	solver *horn.Solver
	names  *tree.Names

	// Bottom-up automaton A: states are canonical residual programs.
	buStates []*horn.Program
	buIndex  map[string]StateID
	buTrans  map[buKey]StateID

	// Node-signature interning; sig ids key the transition table and map
	// to precomputed EDB fact sets. Signatures with identical fact sets
	// share one id: the automaton alphabet is 2^sigma for the program's
	// own sigma (Definition 4.2), so all labels the program does not
	// mention collapse into one equivalence class.
	sigIndex  map[edb.NodeSig]int32
	factIndex map[string]int32
	sigFacts  [][]horn.Atom

	// Top-down automaton B: states are canonical sorted sets of local
	// atoms (the predicates true at a node).
	tdStates [][]horn.Atom
	tdIndex  map[string]StateID
	tdTrans  map[tdKey]StateID
	// tdQuery caches, per top-down state, the bitmask of query predicates
	// it contains (bit i = Queries[i]).
	tdQuery []uint64

	stats Stats

	// scratch rule buffer reused across transition computations
	ruleBuf []horn.Rule
}

// newAutomaton returns the empty automata of c over names.
func newAutomaton(c *Compiled, names *tree.Names) automaton {
	return automaton{
		c:         c,
		solver:    horn.NewSolver(c.U),
		names:     names,
		buIndex:   make(map[string]StateID),
		buTrans:   make(map[buKey]StateID),
		sigIndex:  make(map[edb.NodeSig]int32),
		factIndex: make(map[string]int32),
		tdIndex:   make(map[string]StateID),
		tdTrans:   make(map[tdKey]StateID),
	}
}

// NewEngine returns an engine for the compiled program. The name table is
// needed to resolve Label[..] tests; it must match the databases the
// engine will be run on.
func NewEngine(c *Compiled, names *tree.Names) *Engine {
	e := &Engine{c: c, names: names, tables: guard.NewRW(newAutomaton(c, names))}
	e.analysis = sync.OnceValue(func() *analysis {
		a := analyze(c, names)
		if a.pruneOK {
			// s* is the one state the analysis adds: prune plans hand it
			// to runs as the state of every skipped extent. No run computed
			// it, so Stats, which the runs' RunStats partition, leave it out.
			e.tables.Write(func(t *automaton) {
				n := t.stats.BUStates
				a.sub = t.internBU(a.subProg)
				t.stats.BUStates = n
			})
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
func (e *Engine) Stats() (s Stats) {
	e.tables.Read(func(t *automaton) { s = t.stats })
	return s
}

// addRun folds a finished run's n node visits, pruned of them pruned (see
// Stats.PrunedNodes), and its phase wall times into the engine's
// statistics.
func (e *Engine) addRun(n, pruned int64, p1, p2 time.Duration) {
	e.tables.Write(func(t *automaton) {
		t.stats.Nodes += n
		t.stats.PrunedNodes += pruned
		t.stats.Phase1Time += p1
		t.stats.Phase2Time += p2
	})
}

// BUStateCount returns the number of bottom-up states interned so far
// (the disk driver sizes its on-disk state width from it).
func (e *Engine) BUStateCount() (n int) {
	e.tables.Read(func(t *automaton) { n = len(t.buStates) })
	return n
}

// SigID interns a node signature, collapsing signatures that satisfy the
// same EDB facts of the program into one alphabet symbol.
func (t *automaton) SigID(sig edb.NodeSig) int32 {
	if id, ok := t.sigIndex[sig]; ok {
		return id
	}
	facts := t.c.FactsFor(t.names, sig)
	var key []byte
	for _, a := range facts {
		key = appendUvarint(key, uint64(a))
	}
	id, ok := t.factIndex[string(key)]
	if !ok {
		id = int32(len(t.sigFacts))
		t.factIndex[string(key)] = id
		t.sigFacts = append(t.sigFacts, facts)
	}
	t.sigIndex[sig] = id
	return id
}

// internBU hash-conses a canonical residual program into a state of A.
func (t *automaton) internBU(p *horn.Program) StateID {
	k := p.Key()
	if id, ok := t.buIndex[k]; ok {
		return id
	}
	id := StateID(len(t.buStates))
	t.buStates = append(t.buStates, p)
	t.buIndex[k] = id
	t.stats.BUStates++
	return id
}

// BUState returns the residual program of bottom-up state id.
func (t *automaton) BUState(id StateID) *horn.Program { return t.buStates[id] }

// internTD hash-conses a sorted set of local atoms into a state of B.
func (t *automaton) internTD(atoms []horn.Atom) StateID {
	var buf []byte
	for _, a := range atoms {
		buf = appendUvarint(buf, uint64(a))
	}
	k := string(buf)
	if id, ok := t.tdIndex[k]; ok {
		return id
	}
	id := StateID(len(t.tdStates))
	t.tdStates = append(t.tdStates, atoms)
	t.tdIndex[k] = id
	var qmask uint64
	for qi, q := range t.c.Queries {
		for _, a := range atoms {
			if a == q {
				qmask |= 1 << uint(qi)
				break
			}
		}
	}
	t.tdQuery = append(t.tdQuery, qmask)
	t.stats.TDStates++
	return id
}

// TDSet returns the true predicates of top-down state id.
func (t *automaton) TDSet(id StateID) []tmnf.Pred {
	atoms := t.tdStates[id]
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
func (t *automaton) ReachableStates(left, right StateID, sigID int32) StateID {
	key := buKey{left, right, sigID}
	if id, ok := t.buTrans[key]; ok {
		return id
	}
	t.stats.BUTransitions++

	u := t.c.U
	rules := t.ruleBuf[:0]
	rules = append(rules, t.c.Local...)
	for _, a := range t.sigFacts[sigID] {
		rules = append(rules, horn.Rule{Head: a})
	}
	if left != NoState {
		rules = append(rules, t.c.Left...)
		rules = append(rules, horn.PushDownProgram(u, 1, t.buStates[left])...)
	}
	if right != NoState {
		rules = append(rules, t.c.Right...)
		rules = append(rules, horn.PushDownProgram(u, 2, t.buStates[right])...)
	}
	t.ruleBuf = rules[:0]

	res := t.solver.LTUR(rules)
	if left != NoState || right != NoState {
		res = horn.Contract(u, res)
	}
	id := t.internBU(res)
	t.buTrans[key] = id
	return id
}

// RootTrueSet extracts the top-down start state s_B from the bottom-up
// state of the root: the predicates true in every reachable STA state,
// i.t. the facts of the root's residual program (step 2 of Algorithm 4.6).
func (t *automaton) RootTrueSet(rootState StateID) StateID {
	return t.internTD(t.buStates[rootState].TruePreds())
}

// TruePreds is the transition function δB_k of the top-down automaton
// (procedure ComputeTruePreds, Figure 3), with lazy caching: given the
// top-down state of the parent, the bottom-up state (residual program) of
// the k-th child, and k, it returns the top-down state of the child.
func (t *automaton) TruePreds(parent StateID, resid StateID, k int) StateID {
	key := tdKey{parent, resid, uint8(k)}
	if id, ok := t.tdTrans[key]; ok {
		return id
	}
	t.stats.TDTransitions++

	u := t.c.U
	rules := t.ruleBuf[:0]
	if k == 1 {
		rules = append(rules, t.c.Down1...)
	} else {
		rules = append(rules, t.c.Down2...)
	}
	for _, a := range t.tdStates[parent] {
		rules = append(rules, horn.Rule{Head: a})
	}
	rules = append(rules, horn.PushDownProgram(u, k, t.buStates[resid])...)
	t.ruleBuf = rules[:0]

	derived := t.solver.Derivable(rules)
	space := horn.Super1
	if k == 2 {
		space = horn.Super2
	}
	childPreds := horn.PushUpFrom(u, k, horn.PredsInSpace(u, derived, space))
	id := t.internTD(childPreds)
	t.tdTrans[key] = id
	return id
}

// queryMask returns the query-predicate bitmask of a top-down state.
func (t *automaton) queryMask(td StateID) uint64 { return t.tdQuery[td] }
