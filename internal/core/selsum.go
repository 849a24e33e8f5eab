// Label-determined selection summaries (this file) underpin the result
// cache's semantic subsumption path: the engine's analysis (analysis.go)
// decides whether the program's selection depends only on a node's label
// and root-ness — and if so, records the per-label verdict here.
//
// When two single-query programs Q and S both admit such a summary and
// Q's selected-label set is pointwise contained in S's (Subsumes), then
// R(Q) ⊆ R(S) on every document, and R(Q) is recoverable from a cached
// R(S) id list by re-filtering on the recorded labels — no scan needed.
package core

import "arb/internal/tree"

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

// newSelSummary builds the summary of a walk's query masks per label:
// mentioned labels individually, every other label by its class
// representative's.
func newSelSummary(mentioned map[tree.Label]bool, charRep, namedRep tree.Label, child, root map[tree.Label]uint64) SelSummary {
	s := SelSummary{
		ok:        true,
		mentioned: mentioned,
		child:     selVerdicts{labels: make(map[tree.Label]bool, len(mentioned)), charDefault: child[charRep] != 0, namedDefault: child[namedRep] != 0},
		root:      selVerdicts{labels: make(map[tree.Label]bool, len(mentioned)), charDefault: root[charRep] != 0, namedDefault: root[namedRep] != 0},
	}
	for l := range mentioned {
		s.child.labels[l] = child[l] != 0
		s.root.labels[l] = root[l] != 0
	}
	return s
}
