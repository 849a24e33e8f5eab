// The static analysis (this file) decides, once per engine, the four
// things a run may know before it reads a node: which extents it may seek
// past (prune.go), which selections a label alone decides (the result
// cache's subsumption, selsum.go), which selections a bottom-up state
// alone decides (one scan, pardisk.go), and whether a node's bottom-up
// state is decided by its own record (forward scan, pardisk.go). All four
// are closure walks over the compiled automata, and one walk computes
// them, on a bare automaton of its own: none of the states and
// transitions it reaches land in the engine, whose tables and Stats hold
// what runs compute and nothing else (Figure 6's columns). The engine gains one state from the analysis, the
// dead-subtree substitute s*, which prune plans hand to runs.
//
// Soundness rests on the alphabet collapse: the automaton alphabet is the
// program's EDB fact sets (SigID), so every label the program's resolved
// Label[..]/char tests do not mention behaves like one representative per
// class (one character, one named label). A walk over the mentioned labels
// plus the representatives, every child shape and every (parent state,
// child state, side) over-approximates the configurations real documents
// reach, so a failed check can only withhold a verdict, never make one
// wrong. The walk gives up (withholding, never misjudging) when a closure
// outgrows its cap. Each verdict:
//
//   - Prune. Bottom-up: the states of subtrees built from unmentioned
//     labels alone are closed under the transition function; when that
//     closure is one state s*, every dead subtree — whatever its shape —
//     folds to s*, so phase 1 may substitute s* without reading the extent.
//     Top-down: Horn derivation is monotone, so entering a dead subtree
//     from the ⊤ state (every local predicate true) over-approximates
//     entering it from any real parent; if the closure of ⊤ under
//     δB_k(·, s*) reaches no query predicate, no node of a dead subtree is
//     ever selected, and phase 2 may skip the extent. Aux bits are not
//     labels; the drivers never prune a pass with aux input.
//   - Subsumption. The selection depends on the label and root-ness alone
//     when, over every configuration the walk reaches, each (label,
//     position) gets one query mask; the result cache then answers a query
//     from a cached superset's ids (Subsumes).
//   - One scan. The selection depends on the bottom-up state alone when,
//     for each non-root state, every top-down step into it yields one
//     query mask (a root's mask is its start state's, a function of its
//     state). Node-local queries qualify — label selections, //a[b]
//     filters, whose witnesses sit below the node; root-path conditions are
//     top-down facts and do not. The verdicts are keyed by residual
//     program, the key the engine interns its states by, so a run looks
//     its own states up. A state a run meets outside the walk cannot
//     happen; should one appear anyway, the run starts over with two scans
//     (errTwoScans).
//   - Forward scan. A node's bottom-up state depends on its record alone —
//     label, child flags, root-ness — when, over every pair (s₁, s₂) of
//     the bottom-up closure, δA(σ, s₁, s₂) depends only on σ, on s₁ ≠ ⊥
//     and s₂ ≠ ⊥, and on root-ness. By induction over the subtree, every
//     node's state is then one δA step with any closure state standing in
//     for each child it has, so phase 2 computes it from the record it
//     reads: no phase 1 and no state file. Root-path queries qualify —
//     their conditions are top-down facts — and upward ones (//a[b]) do
//     not. A document's root has no second child, so the walk leaves that
//     shape out; a run whose root has one starts over with two scans.
package core

import (
	"errors"
	"slices"

	"arb/internal/edb"
	"arb/internal/horn"
	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Closure caps. Real query automata converge within a handful of states;
// the label walk's are larger because it closes over the mentioned labels
// too.
const (
	deadBUCap  = 16
	deadTDCap  = 64
	labelBUCap = 32
	labelTDCap = 256
)

// errTwoScans ends a one-scan attempt that met a bottom-up state the
// analysis did not cover, or a forward attempt over a root with a second
// child; the driver reruns it with both phases.
var errTwoScans = errors.New("core: bottom-up state outside the one-scan analysis")

// oneScanOff forces every run through both phases. A variable only so the
// package tests can check one-scan and forward answers against forced
// two-scan ones.
var oneScanOff = false

// analysis is an engine's plan: every verdict of the walk, computed once
// (Engine.analysis) and read without locks.
type analysis struct {
	// Prune: whether label-disjoint extents may be skipped, the labels
	// that can influence the program, and s* (its residual program, and
	// its id in the engine).
	pruneOK bool
	live    storage.LabelSig
	subProg *horn.Program
	sub     StateID

	sel SelSummary // ok=false when no label-determined summary exists

	// One scan: the query mask of a node whose bottom-up state has
	// residual program key k is child[k] at a non-root node and root[k] at
	// the root; both nil when the program is not admitted.
	oneScan     bool
	child, root map[string]uint64

	// Forward scan: every node's bottom-up state is a function of its
	// record (StepCache.RecState).
	forward bool
}

// analyze runs the walk for program c over the name table names, on an
// automaton it owns.
func analyze(c *Compiled, names *tree.Names) *analysis {
	w := newAutomaton(c, names)
	a := &analysis{}

	// Mentioned labels: only resolved Label[..]/char tests pin individual
	// labels. Structural tests are label-independent; Text distinguishes
	// the two classes, which the representatives model; an unresolvable
	// label test holds on no node and distinguishes nothing. Aux bits vary
	// per node outside the label: pruning leaves them to the drivers, the
	// label verdicts cannot.
	mentioned := map[tree.Label]bool{}
	aux := false
	for _, un := range c.Unaries {
		switch un.Kind {
		case tmnf.UAll, tmnf.URoot, tmnf.UHasFirstChild, tmnf.UHasSecondChild, tmnf.UText:
		case tmnf.UAux:
			aux = true
		case tmnf.ULabel, tmnf.UChar:
			if l, ok := edb.ResolveLabel(un, names); ok {
				mentioned[l] = true
			}
		default:
			return a // unknown unary kind: no verdict
		}
	}
	for l := range mentioned {
		a.live.Add(uint16(l))
	}

	// One representative per class with an unmentioned member.
	var reps []tree.Label
	for l := 0; l < 256; l++ {
		if !mentioned[tree.Label(l)] {
			reps = append(reps, tree.Label(l))
			break
		}
	}
	for l := 1<<14 - 1; l >= 256; l-- {
		if !mentioned[tree.Label(l)] {
			reps = append(reps, tree.Label(l))
			break
		}
	}

	a.judgePrune(&w, reps)
	// The label verdicts need both classes' defaults (a program naming
	// every character is pathological) and no aux input.
	if !aux && len(reps) == 2 {
		a.judgeLabels(&w, mentioned, reps[0], reps[1], len(c.Queries) == 1)
	}
	return a
}

// judgePrune closes the dead-subtree states over the representatives and,
// when they fold to one state s*, the top-down states from ⊤ over it.
func (a *analysis) judgePrune(w *automaton, reps []tree.Label) {
	if len(reps) == 0 {
		return // every label is live: no extent is ever dead
	}
	bu, ok := w.closeBU(reps, deadBUCap, nil)
	if !ok || len(bu) != 1 {
		return // dead subtrees of different shapes fold to different states
	}
	var sub StateID
	for s := range bu {
		sub = s
	}
	u := w.c.U
	top := make([]horn.Atom, u.NumIDB)
	for i := range top {
		top[i] = u.LocalAtom(i)
	}
	if !w.closeTD([]StateID{w.internTD(top)}, []StateID{sub}, deadTDCap, func(_, td StateID) bool {
		return w.queryMask(td) == 0 // a selection reachable inside a dead subtree
	}) {
		return
	}
	a.pruneOK, a.subProg = true, w.BUState(sub)
}

// judgeLabels walks the trees over the mentioned labels and the two
// representatives for the subsumption verdicts (of a program with one
// query predicate), the one-scan verdicts and the forward verdict. After
// each bottom-up round it checks the states found so far, once per verdict
// still standing: those configurations are real ones too, so a verdict
// refused there is refused for good (root-path queries fail one scan on
// the first round's leaves), and the round that adds nothing checks the
// whole closure.
func (a *analysis) judgeLabels(w *automaton, mentioned map[tree.Label]bool, charRep, namedRep tree.Label, oneQuery bool) {
	alphabet := make([]tree.Label, 0, len(mentioned)+2)
	for l := range mentioned {
		alphabet = append(alphabet, l)
	}
	slices.Sort(alphabet) // map order would make the walk's early exits vary
	alphabet = append(alphabet, charRep, namedRep)
	var childV, rootV map[tree.Label]uint64
	var child, root map[StateID]uint64
	selOK, oneOK, fwdOK := oneQuery, true, true
	if bu, ok := w.closeBU(alphabet, labelBUCap, func(bu buClosure) bool {
		states := bu.states()
		if selOK {
			childV, rootV, selOK = w.labelVerdicts(alphabet, bu, states)
		}
		if oneOK {
			child, root, oneOK = w.stateVerdicts(alphabet, states)
		}
		if fwdOK {
			fwdOK = w.recordVerdict(alphabet, states, false)
		}
		return selOK || oneOK || fwdOK
	}); !ok {
		return
	} else if fwdOK {
		fwdOK = w.recordVerdict(alphabet, bu.states(), true)
	}
	if selOK {
		a.sel = newSelSummary(mentioned, charRep, namedRep, childV, rootV)
	}
	if oneOK {
		a.oneScan, a.child, a.root = true, w.keyed(child), w.keyed(root)
	}
	a.forward = fwdOK
}

// labelVerdicts is the subsumption walk: the query mask of every label at
// non-root nodes and at the root, false when a label's mask depends on
// more than the label. Root configurations include a second child: a
// summary answers for any document.
func (w *automaton) labelVerdicts(alphabet []tree.Label, bu buClosure, states []StateID) (child, root map[tree.Label]uint64, ok bool) {
	child, root = map[tree.Label]uint64{}, map[tree.Label]uint64{}
	// Roots without a second child first: their configurations refuse
	// most programs that fail, before the quadratic rest is enumerated.
	for _, second := range []bool{false, true} {
		starts, ok := w.roots(alphabet, states, second, func(l tree.Label, _, td StateID) bool {
			return agree(root, l, w.queryMask(td))
		})
		if !ok || !w.closeTD(starts, states, labelTDCap, func(s, td StateID) bool {
			for l := range bu[s] {
				if !agree(child, l, w.queryMask(td)) {
					return false
				}
			}
			return true
		}) {
			return nil, nil, false
		}
	}
	return child, root, true
}

// stateVerdicts is the one-scan walk: the query mask of every bottom-up
// state at non-root nodes and at the root, false when a state's mask
// depends on more than the state. Root configurations leave out a second
// child, which a document's root never has; a run over a tree whose root
// has one meets a state outside the verdicts and reruns with two scans.
func (w *automaton) stateVerdicts(alphabet []tree.Label, states []StateID) (child, root map[StateID]uint64, ok bool) {
	child, root = map[StateID]uint64{}, map[StateID]uint64{}
	starts, ok := w.roots(alphabet, states, false, func(_ tree.Label, s, td StateID) bool {
		return agree(root, s, w.queryMask(td))
	})
	ok = ok && w.closeTD(starts, states, labelTDCap, func(s, td StateID) bool {
		return agree(child, s, w.queryMask(td))
	})
	return child, root, ok
}

// recordVerdict is the forward walk over non-root nodes or roots: false
// when two steps into nodes of one record — over the states as children,
// on every side the record announces one — yield different states. Roots
// take no second child, which a document's root never has; they are
// checked once, over the whole closure, as no root is a child.
func (w *automaton) recordVerdict(alphabet []tree.Label, states []StateID, root bool) bool {
	none := []StateID{NoState}
	for _, l := range alphabet {
		for shape := range 4 {
			first, second := shape&1 != 0, shape&2 != 0
			if root && second {
				continue
			}
			lefts, rights := none, none
			if first {
				lefts = states
			}
			if second {
				rights = states
			}
			sig := w.sigOf(l, first, second, root)
			want := w.ReachableStates(lefts[0], rights[0], sig)
			for _, s1 := range lefts {
				for _, s2 := range rights {
					if w.ReachableStates(s1, s2, sig) != want {
						return false
					}
				}
			}
		}
	}
	return true
}

// agree records mask as k's verdict in m, false when k already has another.
func agree[K comparable](m map[K]uint64, k K, mask uint64) bool {
	if v, ok := m[k]; ok {
		return v == mask
	}
	m[k] = mask
	return true
}

// keyed re-keys verdicts from the walk's state ids to residual program
// keys, which every engine of the program shares.
func (w *automaton) keyed(v map[StateID]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(v))
	for s, mask := range v {
		out[w.BUState(s).Key()] = mask
	}
	return out
}

// buClosure maps each bottom-up state of a closure to the labels that can
// sit at the root of a subtree in that state.
type buClosure map[StateID]map[tree.Label]bool

// states lists the closure's states in id order.
func (bu buClosure) states() []StateID {
	out := make([]StateID, 0, len(bu))
	for s := range bu {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// closeBU is the walk's bottom-up fixpoint: every state of a non-root
// subtree built from alphabet, over the four child shapes. round, when not
// nil, sees the states after each round. ok is false when the closure
// outgrows maxStates or round returns false.
func (w *automaton) closeBU(alphabet []tree.Label, maxStates int, round func(buClosure) bool) (bu buClosure, ok bool) {
	bu = buClosure{}
	note := func(s StateID, l tree.Label) bool {
		if bu[s] == nil {
			bu[s] = map[tree.Label]bool{}
		}
		if bu[s][l] {
			return false
		}
		bu[s][l] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		cur := bu.states()
		for _, l := range alphabet {
			changed = note(w.ReachableStates(NoState, NoState, w.sigOf(l, false, false, false)), l) || changed
			for _, s1 := range cur {
				changed = note(w.ReachableStates(s1, NoState, w.sigOf(l, true, false, false)), l) || changed
				changed = note(w.ReachableStates(NoState, s1, w.sigOf(l, false, true, false)), l) || changed
				for _, s2 := range cur {
					changed = note(w.ReachableStates(s1, s2, w.sigOf(l, true, true, false)), l) || changed
				}
			}
		}
		if len(bu) > maxStates || (round != nil && !round(bu)) {
			return nil, false
		}
	}
	return bu, true
}

// roots enumerates the root configurations over alphabet and the
// bottom-up states: every label over every shape and child-state
// combination, with a second child only if second. It reports each to
// each with the root's bottom-up state and its top-down start state, and
// returns the distinct start states.
func (w *automaton) roots(alphabet []tree.Label, states []StateID, second bool, each func(l tree.Label, bu, td StateID) bool) (starts []StateID, ok bool) {
	seen := map[StateID]bool{}
	cfg := func(l tree.Label, left, right StateID) bool {
		s := w.ReachableStates(left, right, w.sigOf(l, left != NoState, right != NoState, true))
		td := w.RootTrueSet(s)
		if !seen[td] {
			seen[td] = true
			starts = append(starts, td)
		}
		return each(l, s, td)
	}
	for _, l := range alphabet {
		if !cfg(l, NoState, NoState) {
			return nil, false
		}
		for _, s1 := range states {
			if !cfg(l, s1, NoState) {
				return nil, false
			}
			if !second {
				continue
			}
			if !cfg(l, NoState, s1) {
				return nil, false
			}
			for _, s2 := range states {
				if !cfg(l, s1, s2) {
					return nil, false
				}
			}
		}
	}
	return starts, true
}

// closeTD is the walk's top-down fixpoint: every state reachable from
// starts by stepping into any of the bottom-up states on either side. step
// sees each step's child state and result; ok is false when it returns
// false or the closure outgrows maxStates.
func (w *automaton) closeTD(starts, states []StateID, maxStates int, step func(bu, td StateID) bool) bool {
	seen := map[StateID]bool{}
	for _, t := range starts {
		seen[t] = true
	}
	work := slices.Clone(starts)
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if len(seen) > maxStates {
			return false
		}
		for _, s := range states {
			for k := 1; k <= 2; k++ {
				td := w.TruePreds(t, s, k)
				if !step(s, td) {
					return false
				}
				if !seen[td] {
					seen[td] = true
					work = append(work, td)
				}
			}
		}
	}
	return true
}

// sigOf is the signature class of a node labeled l with the given child
// flags and root-ness.
func (t *automaton) sigOf(l tree.Label, hasFirst, hasSecond, root bool) int32 {
	return t.SigID(edb.NodeSig{Label: l, HasFirst: hasFirst, HasSecond: hasSecond, IsRoot: root})
}

// OneScan reports whether the engine's selection is decided by bottom-up
// states alone, so a run without aux input, marked output or kept states
// answers in one scan.
func (e *Engine) OneScan() bool { return e.analysis().oneScan }

// Forward reports whether the engine's bottom-up states are decided by
// the nodes' own records, so a run without aux input answers in one
// forward scan, with no phase 1 and no state file.
func (e *Engine) Forward() bool { return e.analysis().forward }

// SelectionSummary returns the engine's label-determined selection
// summary, or nil when the program does not admit one (selection depends
// on context or shape, several query predicates, aux input, or the
// closure caps were exceeded).
func (e *Engine) SelectionSummary() *SelSummary {
	if a := e.analysis(); a.sel.ok {
		return &a.sel
	}
	return nil
}
