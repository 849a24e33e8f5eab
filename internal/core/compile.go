// Package core implements the paper's primary contribution: two-phase
// evaluation of TMNF programs by a deterministic bottom-up tree automaton
// followed by a deterministic top-down tree automaton, both with lazily
// computed transition functions whose states are canonical residual
// propositional Horn programs (Sections 4 and 4.1-4.3).
//
// A TMNF program is first compiled (Definition 4.2, PropLocal) into groups
// of propositional rules over a three-space atom universe (local,
// superscript-1, superscript-2) plus EDB atoms. The engine then evaluates
// the program over a tree in two linear passes:
//
//   - bottom-up, assigning to every node a canonical residual program that
//     represents the set of all states a selecting tree automaton could
//     reach at that node (ComputeReachableStates, Figure 2), and
//   - top-down, pruning those sets with information from above and
//     extracting the predicates true in all remaining states — which by
//     Theorem 4.1 is exactly the TMNF semantics P(T)
//     (ComputeTruePreds, Figure 3).
//
// The engine evaluates .arb databases in secondary storage with two linear
// scans (disk.go, pardisk.go), and in-memory trees the same way, over their
// record image (memory.go).
package core

import (
	"fmt"

	"arb/internal/edb"
	"arb/internal/horn"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Compiled is the PropLocal(P) split of a TMNF program (Definition 4.2):
// its propositional rules grouped into local rules (bullets 1-2), left
// rules (3 and 5), right rules (4 and 6), and the downward subsets
// (5 alone and 6 alone) used by the top-down phase.
type Compiled struct {
	Prog *tmnf.Program
	U    horn.Universe

	Local []horn.Rule // head and body atoms local or EDB
	Left  []horn.Rule // upward-left (X <- X^1) and downward-left (X^1 <- X)
	Right []horn.Rule // upward-right and downward-right
	Down1 []horn.Rule // downward-left only: X^1_i <- X_j
	Down2 []horn.Rule // downward-right only: X^2_i <- X_j

	// Unaries lists the EDB predicates; EDB atom j of U is Unaries[j].
	Unaries []tmnf.Unary

	// Queries are the program's query predicates as local atoms.
	Queries []horn.Atom
}

// Compile builds the PropLocal split of p.
func Compile(p *tmnf.Program) (*Compiled, error) {
	c := &Compiled{
		Prog:    p,
		U:       horn.Universe{NumIDB: p.NumPreds(), NumEDB: len(p.Unaries())},
		Unaries: p.Unaries(),
	}
	u := c.U
	for _, r := range p.Rules() {
		switch r.Kind {
		case tmnf.RuleLocal:
			body := make([]horn.Atom, len(r.Body))
			for i, a := range r.Body {
				if a.IsUnary {
					body[i] = u.EDBAtom(a.U)
				} else {
					body[i] = u.LocalAtom(int(a.Pred))
				}
			}
			c.Local = append(c.Local, horn.NewRule(u.LocalAtom(int(r.Head)), body...))
		case tmnf.RuleMove:
			// Definition 4.2 (5)/(6): Xi :- Xj.FirstChild gives
			// X^1_i <- X_j — a downward rule, also a left rule.
			k := int(r.Rel)
			rule := horn.NewRule(u.SuperAtom(k, int(r.Head)), u.LocalAtom(int(r.From)))
			if k == 1 {
				c.Left = append(c.Left, rule)
				c.Down1 = append(c.Down1, rule)
			} else {
				c.Right = append(c.Right, rule)
				c.Down2 = append(c.Down2, rule)
			}
		case tmnf.RuleInvMove:
			// Definition 4.2 (3)/(4): Xi :- Xj.invFirstChild gives
			// X_i <- X^1_j.
			k := int(r.Rel)
			rule := horn.NewRule(u.LocalAtom(int(r.Head)), u.SuperAtom(k, int(r.From)))
			if k == 1 {
				c.Left = append(c.Left, rule)
			} else {
				c.Right = append(c.Right, rule)
			}
		default:
			return nil, fmt.Errorf("core: unknown rule kind %d", r.Kind)
		}
	}
	for _, q := range p.Queries() {
		c.Queries = append(c.Queries, u.LocalAtom(int(q)))
	}
	return c, nil
}

// AtomName renders an atom for debugging using the program's predicate
// names.
func (c *Compiled) AtomName(a horn.Atom) string {
	space, i := c.U.SpaceOf(a)
	switch space {
	case horn.Local:
		return c.Prog.PredName(tmnf.Pred(i))
	case horn.Super1:
		return c.Prog.PredName(tmnf.Pred(i)) + "^1"
	case horn.Super2:
		return c.Prog.PredName(tmnf.Pred(i)) + "^2"
	default:
		return c.Unaries[i].String()
	}
}

// FactsFor computes the EDB facts (as atoms) holding on a node with the
// given signature. The engine interns the result per signature.
func (c *Compiled) FactsFor(names *tree.Names, sig edb.NodeSig) []horn.Atom {
	var out []horn.Atom
	for j, un := range c.Unaries {
		if edb.Holds(un, names, sig) {
			out = append(out, c.U.EDBAtom(j))
		}
	}
	return out
}
