// Label-determined selection summaries (this file) underpin the result
// cache's semantic subsumption path: a static analysis over the compiled
// automata decides whether the program's selection depends only on a
// node's label and root-ness — and if so, records the per-label verdict.
//
// When two single-query programs Q and S both admit such a summary and
// Q's selected-label set is pointwise contained in S's (Subsumes), then
// R(Q) ⊆ R(S) on every document, and R(Q) is recoverable from a cached
// R(S) id list by re-filtering on the recorded labels — no scan needed.
//
// Soundness rests on the same alphabet-collapse argument as prune.go:
// the automaton alphabet is the program's EDB fact sets (SigID), so all
// labels the program's resolved Label[..]/char tests do not mention
// collapse into one class representative per class (characters, named
// labels). The analysis closes the bottom-up state space over arbitrary
// trees built from the mentioned labels plus the representatives,
// enumerates every root configuration, and closes the top-down state
// space over every (parent state, child state, side) combination — an
// over-approximation of the configurations real documents can reach, so
// a verdict inconsistency can only make the analysis fail conservatively
// (no summary, exact-hit caching only), never produce a wrong verdict.
package core

import (
	"slices"

	"arb/internal/edb"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Closure caps: the analysis gives up (disabling subsumption, never
// correctness) if the state sets grow past these bounds. Label-determined
// query automata converge within a handful of states.
const (
	selBUCap = 32
	selTDCap = 256
)

// selVerdicts maps labels to selection verdicts for one node position
// (root or non-root): mentioned labels individually, everything else by
// class default.
type selVerdicts struct {
	labels       map[tree.Label]bool
	charDefault  bool // unmentioned character labels
	namedDefault bool // unmentioned named labels
}

func (v *selVerdicts) verdict(l tree.Label) bool {
	if sel, ok := v.labels[l]; ok {
		return sel
	}
	if l.IsChar() {
		return v.charDefault
	}
	return v.namedDefault
}

// SelSummary is the result of the label-determined selection analysis: a
// total function (label, isRoot) → selected, valid for the program on
// every document using the name table the summary was computed against.
// The zero value (ok=false) records an inadmissible program.
type SelSummary struct {
	ok        bool
	mentioned map[tree.Label]bool
	child     selVerdicts // verdicts at non-root nodes
	root      selVerdicts // verdicts at the root
}

// Selected reports whether a node labeled l (at root or non-root
// position) is selected by the summarized program.
func (s *SelSummary) Selected(l tree.Label, isRoot bool) bool {
	if isRoot {
		return s.root.verdict(l)
	}
	return s.child.verdict(l)
}

// Subsumes reports whether q's selection is pointwise contained in s's:
// every (label, position) q selects, s selects too. Then R(q) ⊆ R(s) on
// every document, and filtering s's result by q's verdicts yields
// exactly R(q). Both summaries must come from engines sharing one name
// table (one Session version guarantees this).
func Subsumes(q, s *SelSummary) bool {
	if q == nil || s == nil || !q.ok || !s.ok {
		return false
	}
	implied := func(l tree.Label) bool {
		return (!q.child.verdict(l) || s.child.verdict(l)) &&
			(!q.root.verdict(l) || s.root.verdict(l))
	}
	for l := range q.mentioned {
		if !implied(l) {
			return false
		}
	}
	for l := range s.mentioned {
		if !implied(l) {
			return false
		}
	}
	// Labels mentioned by neither side fall to the class defaults.
	if q.child.charDefault && !s.child.charDefault {
		return false
	}
	if q.child.namedDefault && !s.child.namedDefault {
		return false
	}
	if q.root.charDefault && !s.root.charDefault {
		return false
	}
	if q.root.namedDefault && !s.root.namedDefault {
		return false
	}
	return true
}

// SelectionSummary returns the engine's label-determined selection
// summary, or nil when the program does not admit one (selection depends
// on context or shape, several query predicates, aux input, or the
// closure caps were exceeded). The result is computed once and cached.
func (e *Engine) SelectionSummary() *SelSummary {
	s := e.lockedSelSummary()
	if !s.ok {
		return nil
	}
	return s
}

// lockedSelSummary runs selSummary under the engine's write lock, so
// summaries may be computed while other runs of the engine are in flight.
func (e *Engine) lockedSelSummary() *SelSummary {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.selSummary()
}

// selSummary computes (and caches) the engine's selection summary. It
// interns synthetic states and transitions into the engine's tables, so
// it must run while the caller holds the engine's write lock
// (lockedSelSummary) or owns the engine exclusively.
//
// arblint:holds mu
func (e *Engine) selSummary() *SelSummary {
	if e.sel != nil {
		return e.sel
	}
	a := &SelSummary{}
	e.sel = a

	// One query predicate, so one selection bit per node; the xpath
	// compiler always emits exactly one.
	if len(e.c.Queries) != 1 {
		return a
	}

	// A node's verdict is the query mask of its top-down state; for a
	// fixed label (and position) it must agree across every configuration
	// the closure reaches.
	rootV := map[tree.Label]bool{}
	childV := map[tree.Label]bool{}
	agree := func(m map[tree.Label]bool, l tree.Label, sel bool) bool {
		if v, ok := m[l]; ok && v != sel {
			return false
		}
		m[l] = sel
		return true
	}
	c, ok := e.closeLabels(true, func(l tree.Label, _, td StateID) bool {
		return agree(rootV, l, e.queryMask(td) != 0)
	}, func(_ StateID, labels map[tree.Label]bool, td StateID) bool {
		sel := e.queryMask(td) != 0
		for l := range labels {
			if !agree(childV, l, sel) {
				return false
			}
		}
		return true
	})
	if !ok {
		return a
	}

	a.ok = true
	a.mentioned = c.mentioned
	a.child = selVerdicts{
		labels:       make(map[tree.Label]bool, len(c.mentioned)),
		charDefault:  childV[c.charRep],
		namedDefault: childV[c.namedRep],
	}
	a.root = selVerdicts{
		labels:       make(map[tree.Label]bool, len(c.mentioned)),
		charDefault:  rootV[c.charRep],
		namedDefault: rootV[c.namedRep],
	}
	for l := range c.mentioned {
		a.child.labels[l] = childV[l]
		a.root.labels[l] = rootV[l]
	}
	return a
}

// labelClosure is what closeLabels reports of the alphabet it closed over.
type labelClosure struct {
	mentioned         map[tree.Label]bool // labels the program's tests pin
	charRep, namedRep tree.Label          // one unmentioned label per class
}

// closeLabels walks the configurations the label analyses (the selection
// summary above, the one-scan verdicts of onescan.go) judge. It closes the
// bottom-up states over every non-root subtree built from the mentioned
// labels plus one representative per unmentioned class, calls root for
// every root configuration — the root's label, its bottom-up state and its
// top-down start state (RootTrueSet) — and closes the top-down states
// non-root nodes can be assigned, seeded from the root start states, over
// every (parent state, child bottom-up state, side), calling child for each
// step with the child's bottom-up state, the labels that can sit at the
// root of a subtree in that state, and the child's top-down state. The
// walk over-approximates the configurations real documents reach: a real
// node's signature class is its mentioned label's or its class
// representative's, and any parent state may meet any child state.
//
// ok is false when the program is inadmissible (aux bits vary per node
// outside the label; a class with every label mentioned leaves no
// representative), when the closure outgrows its caps, or when a callback
// returns false. The walk interns states and transitions into the
// engine's tables.
//
// arblint:holds mu
func (e *Engine) closeLabels(rootSecond bool, root func(l tree.Label, bu, td StateID) bool, child func(bu StateID, labels map[tree.Label]bool, td StateID) bool) (c labelClosure, ok bool) {
	// Mentioned labels: only resolved Label[..]/char tests pin individual
	// labels. Structural tests are label-independent; Text distinguishes
	// the classes, which the class representatives model. Aux bits vary
	// per node outside the label, so they defeat the analysis outright.
	c.mentioned = map[tree.Label]bool{}
	for _, un := range e.c.Unaries {
		switch un.Kind {
		case tmnf.UAll, tmnf.URoot, tmnf.UHasFirstChild, tmnf.UHasSecondChild, tmnf.UText:
		case tmnf.ULabel, tmnf.UChar:
			if l, ok := edb.ResolveLabel(un, e.names); ok {
				c.mentioned[l] = true
			}
		default:
			return c, false
		}
	}

	// Alphabet: every mentioned label plus one representative per
	// unmentioned class. A class with every label mentioned would leave
	// its default verdict meaningless; give up (cannot happen for named
	// labels, and a program naming all 256 characters is pathological).
	alphabet := make([]tree.Label, 0, len(c.mentioned)+2)
	for l := range c.mentioned {
		alphabet = append(alphabet, l)
	}
	foundChar, foundNamed := false, false
	for l := 0; l < 256; l++ {
		if !c.mentioned[tree.Label(l)] {
			c.charRep, foundChar = tree.Label(l), true
			break
		}
	}
	for l := 1<<14 - 1; l >= 256; l-- {
		if !c.mentioned[tree.Label(l)] {
			c.namedRep, foundNamed = tree.Label(l), true
			break
		}
	}
	if !foundChar || !foundNamed {
		return c, false
	}
	slices.Sort(alphabet) // map order would make the walk's early exits, and so the states it interns, vary
	alphabet = append(alphabet, c.charRep, c.namedRep)

	sig := func(l tree.Label, hf, hs, root bool) int32 {
		return e.SigID(edb.NodeSig{Label: l, HasFirst: hf, HasSecond: hs, IsRoot: root})
	}

	// Bottom-up closure: every state reachable by a non-root subtree over
	// the alphabet, over the four child shapes, attributing to each state
	// the labels that can sit at its subtree root (several labels may
	// fold to one state; the label verdicts need them all). After each
	// round the top-down walk below runs over the states found so far:
	// those configurations are real ones too, so a callback refusing one
	// rejects the program without closing the rest (root-path queries
	// fail on the first round's leaves), and the round that adds nothing
	// walks the whole closure.
	bu := map[StateID]map[tree.Label]bool{}
	note := func(s StateID, l tree.Label) bool {
		m := bu[s]
		if m == nil {
			m = map[tree.Label]bool{}
			bu[s] = m
		}
		if m[l] {
			return false
		}
		m[l] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		cur := make([]StateID, 0, len(bu))
		for s := range bu {
			cur = append(cur, s)
		}
		slices.Sort(cur)
		for _, l := range alphabet {
			if note(e.ReachableStates(NoState, NoState, sig(l, false, false, false)), l) {
				changed = true
			}
			for _, s1 := range cur {
				if note(e.ReachableStates(s1, NoState, sig(l, true, false, false)), l) {
					changed = true
				}
				if note(e.ReachableStates(NoState, s1, sig(l, false, true, false)), l) {
					changed = true
				}
				for _, s2 := range cur {
					if note(e.ReachableStates(s1, s2, sig(l, true, true, false)), l) {
						changed = true
					}
				}
			}
		}
		if len(bu) > selBUCap || !e.walkLabels(alphabet, bu, sig, rootSecond, root, child) {
			return c, false
		}
	}
	return c, true
}

// walkLabels is closeLabels' top-down walk over the bottom-up states bu.
//
// arblint:holds mu
func (e *Engine) walkLabels(alphabet []tree.Label, bu map[StateID]map[tree.Label]bool, sig func(l tree.Label, hf, hs, root bool) int32, rootSecond bool,
	root func(l tree.Label, bu, td StateID) bool, child func(bu StateID, labels map[tree.Label]bool, td StateID) bool) bool {
	buList := make([]StateID, 0, len(bu))
	for s := range bu {
		buList = append(buList, s)
	}
	slices.Sort(buList)

	// Root configurations: every label over every shape and child-state
	// combination — without a second child unless rootSecond: a document's
	// root has no siblings, and a caller that omits them must meet a root
	// with a second child some other way.
	tdSeen := map[StateID]bool{}
	work := []StateID{}
	push := func(t StateID) {
		if !tdSeen[t] {
			tdSeen[t] = true
			work = append(work, t)
		}
	}
	rootCfg := func(l tree.Label, left, right StateID, hf, hs bool) bool {
		s := e.ReachableStates(left, right, sig(l, hf, hs, true))
		td := e.RootTrueSet(s)
		push(td)
		return root(l, s, td)
	}
	for _, l := range alphabet {
		if !rootCfg(l, NoState, NoState, false, false) {
			return false
		}
		for _, s1 := range buList {
			if !rootCfg(l, s1, NoState, true, false) {
				return false
			}
			if !rootSecond {
				continue
			}
			if !rootCfg(l, NoState, s1, false, true) {
				return false
			}
			for _, s2 := range buList {
				if !rootCfg(l, s1, s2, true, true) {
					return false
				}
			}
		}
	}

	// Top-down closure: every state a non-root node can be assigned,
	// closed under both transition sides against every bottom-up state.
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if len(tdSeen) > selTDCap {
			return false
		}
		for _, s := range buList {
			for k := 1; k <= 2; k++ {
				td := e.TruePreds(t, s, k)
				if !child(s, bu[s], td) {
					return false
				}
				push(td)
			}
		}
	}
	return true
}
