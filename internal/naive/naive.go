// Package naive implements a textbook semi-naive fixpoint evaluator for
// TMNF programs over in-memory trees.
//
// It is the class of evaluation the paper improves on: linear in |P|*n,
// but it visits each node up to |P| times, requires the whole tree (plus a
// predicate/node boolean matrix) in main memory, and needs parent
// pointers. In this repository it serves two purposes: as the correctness
// oracle for differential tests of the two-phase automata engine (Theorem
// 4.1), and as the "conventional main-memory evaluation" baseline in the
// ablation benchmarks.
package naive

import (
	"arb/internal/edb"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Result holds the full evaluation of a TMNF program: the truth value of
// every IDB predicate on every node (the paper's P(T)).
type Result struct {
	prog  *tmnf.Program
	n     int
	truth [][]bool // truth[pred][node]
}

// Holds reports whether predicate p holds on node v.
func (r *Result) Holds(p tmnf.Pred, v tree.NodeID) bool { return r.truth[p][v] }

// Selected returns the nodes on which predicate q holds, in preorder.
func (r *Result) Selected(q tmnf.Pred) []tree.NodeID {
	var out []tree.NodeID
	for v := 0; v < r.n; v++ {
		if r.truth[q][v] {
			out = append(out, tree.NodeID(v))
		}
	}
	return out
}

// Count returns the number of nodes on which q holds.
func (r *Result) Count(q tmnf.Pred) int {
	c := 0
	for v := 0; v < r.n; v++ {
		if r.truth[q][v] {
			c++
		}
	}
	return c
}

// Evaluate computes the minimum model of program p over tree t by
// semi-naive fixpoint iteration.
func Evaluate(t *tree.Tree, p *tmnf.Program) *Result { return EvaluateAux(t, p, nil) }

// EvaluateAux is Evaluate with auxiliary predicate masks: Aux[k] holds at
// v iff bit k of aux(v) is set (nil: none holds).
func EvaluateAux(t *tree.Tree, p *tmnf.Program, aux func(v tree.NodeID) uint16) *Result {
	n := t.Len()
	np := p.NumPreds()
	res := &Result{prog: p, n: n, truth: make([][]bool, np)}
	for i := range res.truth {
		res.truth[i] = make([]bool, n)
	}
	if n == 0 {
		return res
	}

	parent, kindOf := t.Parents()
	rules := p.Rules()
	names := t.Names()
	unaries := p.Unaries()

	// occ indexes rules by the IDB predicates in their bodies.
	occ := make([][]int32, np)
	for ri, r := range rules {
		switch r.Kind {
		case tmnf.RuleLocal:
			for _, a := range r.Body {
				if !a.IsUnary {
					occ[a.Pred] = append(occ[a.Pred], int32(ri))
				}
			}
		case tmnf.RuleMove, tmnf.RuleInvMove:
			occ[r.From] = append(occ[r.From], int32(ri))
		}
	}

	// Per-node unary truth is evaluated on demand from signatures.
	holdsUnary := func(ui int, v tree.NodeID) bool {
		sig := edb.SigOf(t, v)
		if aux != nil {
			sig.Extra = aux(v)
		}
		return edb.Holds(unaries[ui], names, sig)
	}

	type fact struct {
		p tmnf.Pred
		v tree.NodeID
	}
	var queue []fact
	derive := func(p tmnf.Pred, v tree.NodeID) {
		if !res.truth[p][v] {
			res.truth[p][v] = true
			queue = append(queue, fact{p, v})
		}
	}

	// fireLocal checks a local rule at node v (all body atoms evaluated).
	fireLocal := func(r *tmnf.Rule, v tree.NodeID) {
		for _, a := range r.Body {
			if a.IsUnary {
				if !holdsUnary(a.U, v) {
					return
				}
			} else if !res.truth[a.Pred][v] {
				return
			}
		}
		derive(r.Head, v)
	}

	// Initialisation: local rules whose bodies contain no IDB predicates
	// can fire immediately on matching nodes.
	for ri := range rules {
		r := &rules[ri]
		if r.Kind != tmnf.RuleLocal {
			continue
		}
		pure := true
		for _, a := range r.Body {
			if !a.IsUnary {
				pure = false
				break
			}
		}
		if !pure {
			continue
		}
		for v := 0; v < n; v++ {
			fireLocal(r, tree.NodeID(v))
		}
	}

	// Propagation.
	for len(queue) > 0 {
		f := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range occ[f.p] {
			r := &rules[ri]
			switch r.Kind {
			case tmnf.RuleLocal:
				fireLocal(r, f.v)
			case tmnf.RuleMove:
				// Head at the Rel-child of the node where From holds.
				var c tree.NodeID
				if r.Rel == tmnf.RelFirst {
					c = t.First(f.v)
				} else {
					c = t.Second(f.v)
				}
				if c != tree.None {
					derive(r.Head, c)
				}
			case tmnf.RuleInvMove:
				// Head at the parent of which f.v is the Rel-child.
				if parent[f.v] != tree.None && tmnf.Rel(kindOf[f.v]) == r.Rel {
					derive(r.Head, parent[f.v])
				}
			}
		}
	}
	return res
}
