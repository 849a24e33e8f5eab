// Package horn implements propositional Horn logic programs, Minoux's
// linear-time unit resolution (LTUR), residual programs, and the
// ContractProgram operation of Section 4.1 of the paper.
//
// Residual programs over the IDB predicates of a TMNF program are the
// central data structure of the whole system: a single residual program
// concisely represents the set of all states a (nondeterministic) selecting
// tree automaton can be in at a tree node, and canonical residual programs
// are the states of the deterministic bottom-up tree automaton that the
// two-phase evaluation algorithm runs.
//
// Atoms are small integers laid out by a Universe: for a TMNF program with
// L IDB predicates, atom i (0 <= i < L) is the local predicate X_i, atom
// L+i is the left-child (superscript-1) predicate X^1_i, atom 2L+i is the
// right-child (superscript-2) predicate X^2_i, and atoms >= 3L are EDB
// predicates (node-label predicates such as Label[a], Root, Leaf and their
// complements).
package horn

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is a propositional predicate in some Universe.
type Atom int32

// Space identifies the predicate space an atom belongs to.
type Space int

const (
	Local  Space = iota // local IDB predicate X_i
	Super1              // left-child IDB predicate X^1_i
	Super2              // right-child IDB predicate X^2_i
	EDB                 // input (node label) predicate
)

// Universe fixes the atom layout for a TMNF program with NumIDB IDB
// predicates and NumEDB EDB predicates.
type Universe struct {
	NumIDB int
	NumEDB int
}

// Size returns the total number of atoms.
func (u Universe) Size() int { return 3*u.NumIDB + u.NumEDB }

// LocalAtom returns the atom for local IDB predicate i.
func (u Universe) LocalAtom(i int) Atom { return Atom(i) }

// SuperAtom returns the atom for IDB predicate i superscripted with k
// (k = 1 for the first child, 2 for the second child).
func (u Universe) SuperAtom(k, i int) Atom { return Atom(k*u.NumIDB + i) }

// EDBAtom returns the atom for EDB predicate j.
func (u Universe) EDBAtom(j int) Atom { return Atom(3*u.NumIDB + j) }

// SpaceOf returns the space of atom a and its predicate index within that
// space.
func (u Universe) SpaceOf(a Atom) (Space, int) {
	i := int(a)
	switch {
	case i < u.NumIDB:
		return Local, i
	case i < 2*u.NumIDB:
		return Super1, i - u.NumIDB
	case i < 3*u.NumIDB:
		return Super2, i - 2*u.NumIDB
	default:
		return EDB, i - 3*u.NumIDB
	}
}

// IsEDB reports whether a is an EDB atom.
func (u Universe) IsEDB(a Atom) bool { return int(a) >= 3*u.NumIDB }

// IsSuper reports whether a is a superscripted IDB atom.
func (u Universe) IsSuper(a Atom) bool { return int(a) >= u.NumIDB && int(a) < 3*u.NumIDB }

// IsLocal reports whether a is a local IDB atom.
func (u Universe) IsLocal(a Atom) bool { return int(a) < u.NumIDB }

// PushDown maps a local IDB atom to its superscript-k counterpart.
// It panics if a is not local.
func (u Universe) PushDown(k int, a Atom) Atom {
	if !u.IsLocal(a) {
		panic(fmt.Sprintf("horn: PushDown of non-local atom %d", a))
	}
	return Atom(k*u.NumIDB) + a
}

// PushUp maps a superscript-k atom to its local counterpart. It panics if
// a is not in the requested superscript space.
func (u Universe) PushUp(k int, a Atom) Atom {
	s, i := u.SpaceOf(a)
	if (k == 1 && s != Super1) || (k == 2 && s != Super2) {
		panic(fmt.Sprintf("horn: PushUp(%d) of atom %d in space %d", k, a, s))
	}
	return Atom(i)
}

// Rule is a propositional Horn clause Head <- Body[0] /\ ... /\ Body[n-1].
// An empty body makes the rule a fact. Bodies are kept sorted and
// duplicate-free; use NewRule to normalise.
type Rule struct {
	Head Atom
	Body []Atom
}

// NewRule returns a rule with a sorted, deduplicated body.
func NewRule(head Atom, body ...Atom) Rule {
	b := append([]Atom(nil), body...)
	sortAtoms(b)
	b = dedupSorted(b)
	return Rule{Head: head, Body: b}
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// isTautology reports whether the rule's head occurs in its own body.
func (r Rule) isTautology() bool {
	for _, a := range r.Body {
		if a == r.Head {
			return true
		}
	}
	return false
}

func sortAtoms(b []Atom) {
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
}

func dedupSorted(b []Atom) []Atom {
	if len(b) < 2 {
		return b
	}
	out := b[:1]
	for _, a := range b[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// compareRules orders rules by (head, body length, body lexicographic).
func compareRules(a, b Rule) int {
	if a.Head != b.Head {
		if a.Head < b.Head {
			return -1
		}
		return 1
	}
	if len(a.Body) != len(b.Body) {
		if len(a.Body) < len(b.Body) {
			return -1
		}
		return 1
	}
	for i := range a.Body {
		if a.Body[i] != b.Body[i] {
			if a.Body[i] < b.Body[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Program is a set of Horn rules. A Program produced by Canon, LTUR or
// Contract is in canonical form: rules sorted and duplicate-free. Canonical
// equal programs have equal Key() encodings, which the engine uses for
// hash-consing automaton states.
type Program struct {
	Rules []Rule
}

// Canon sorts and deduplicates the program's rules in place and returns it.
func (p *Program) Canon() *Program {
	sort.Slice(p.Rules, func(i, j int) bool { return compareRules(p.Rules[i], p.Rules[j]) < 0 })
	out := p.Rules[:0]
	for i, r := range p.Rules {
		if i == 0 || compareRules(r, p.Rules[i-1]) != 0 {
			out = append(out, r)
		}
	}
	p.Rules = out
	return p
}

// Key returns a byte-string encoding that is identical for canonically
// equal programs. The program must be in canonical form.
func (p *Program) Key() string {
	var b []byte
	for _, r := range p.Rules {
		b = appendUvarint(b, uint64(r.Head)+1)
		b = appendUvarint(b, uint64(len(r.Body)))
		for _, a := range r.Body {
			b = appendUvarint(b, uint64(a))
		}
	}
	return string(b)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// TruePreds returns the heads of all facts in the program (the predicates
// already known to be true), in ascending order. The program must be
// canonical (facts sort first within each head group, which is all we rely
// on).
func (p *Program) TruePreds() []Atom {
	var out []Atom
	for _, r := range p.Rules {
		if r.IsFact() {
			out = append(out, r.Head)
		}
	}
	sortAtoms(out)
	return dedupSorted(out)
}

// PushDownProgram returns a copy of p (which must mention only local atoms)
// with every atom moved to the superscript-k space.
func PushDownProgram(u Universe, k int, p *Program) []Rule {
	out := make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		nr := Rule{Head: u.PushDown(k, r.Head), Body: make([]Atom, len(r.Body))}
		for j, a := range r.Body {
			nr.Body[j] = u.PushDown(k, a)
		}
		out[i] = nr
	}
	return out
}

// PredsInSpace filters atoms to those in the given space.
func PredsInSpace(u Universe, atoms []Atom, s Space) []Atom {
	var out []Atom
	for _, a := range atoms {
		if sp, _ := u.SpaceOf(a); sp == s {
			out = append(out, a)
		}
	}
	return out
}

// PushUpFrom maps superscript-k atoms back to local atoms.
func PushUpFrom(u Universe, k int, atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = u.PushUp(k, a)
	}
	return out
}

// String renders the program with a namer for debugging; namer may be nil.
func (p *Program) String() string { return p.Format(nil) }

// Format renders the program using namer to print atoms (nil for numeric).
func (p *Program) Format(namer func(Atom) string) string {
	name := namer
	if name == nil {
		name = func(a Atom) string { return fmt.Sprintf("p%d", a) }
	}
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(name(r.Head))
		b.WriteString(" <-")
		for _, a := range r.Body {
			b.WriteString(" ")
			b.WriteString(name(a))
		}
		b.WriteString(";")
	}
	return b.String()
}
