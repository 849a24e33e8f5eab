package horn

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestUniverseLayout(t *testing.T) {
	u := Universe{NumIDB: 3, NumEDB: 2}
	if u.Size() != 11 {
		t.Fatalf("Size = %d, want 11", u.Size())
	}
	cases := []struct {
		a     Atom
		space Space
		idx   int
	}{
		{u.LocalAtom(0), Local, 0},
		{u.LocalAtom(2), Local, 2},
		{u.SuperAtom(1, 0), Super1, 0},
		{u.SuperAtom(2, 2), Super2, 2},
		{u.EDBAtom(0), EDB, 0},
		{u.EDBAtom(1), EDB, 1},
	}
	for _, c := range cases {
		s, i := u.SpaceOf(c.a)
		if s != c.space || i != c.idx {
			t.Errorf("SpaceOf(%d) = %v,%d want %v,%d", c.a, s, i, c.space, c.idx)
		}
	}
	if !u.IsEDB(u.EDBAtom(1)) || u.IsEDB(u.SuperAtom(2, 2)) {
		t.Error("IsEDB misclassifies")
	}
	if u.PushDown(1, u.LocalAtom(2)) != u.SuperAtom(1, 2) {
		t.Error("PushDown(1) wrong")
	}
	if u.PushUp(2, u.SuperAtom(2, 1)) != u.LocalAtom(1) {
		t.Error("PushUp(2) wrong")
	}
}

func TestNewRuleNormalises(t *testing.T) {
	r := NewRule(5, 3, 1, 3, 2, 1)
	if !reflect.DeepEqual(r.Body, []Atom{1, 2, 3}) {
		t.Errorf("body = %v, want [1 2 3]", r.Body)
	}
}

func TestProgramCanonAndKey(t *testing.T) {
	p1 := &Program{Rules: []Rule{NewRule(2, 1), NewRule(0), NewRule(2, 1)}}
	p2 := &Program{Rules: []Rule{NewRule(0), NewRule(2, 1)}}
	p1.Canon()
	p2.Canon()
	if p1.Key() != p2.Key() {
		t.Errorf("canonical keys differ: %q vs %q", p1.Key(), p2.Key())
	}
	p3 := &Program{Rules: []Rule{NewRule(0), NewRule(2, 0)}}
	p3.Canon()
	if p3.Key() == p1.Key() {
		t.Error("distinct programs share a key")
	}
}

func TestTruePreds(t *testing.T) {
	p := (&Program{Rules: []Rule{NewRule(3), NewRule(1), NewRule(2, 1)}}).Canon()
	if got := p.TruePreds(); !reflect.DeepEqual(got, []Atom{1, 3}) {
		t.Errorf("TruePreds = %v, want [1 3]", got)
	}
}

// closure computes derivable atoms by naive iteration, as an oracle.
func closure(rules []Rule, universeSize int) []bool {
	truth := make([]bool, universeSize)
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if truth[r.Head] {
				continue
			}
			all := true
			for _, a := range r.Body {
				if !truth[a] {
					all = false
					break
				}
			}
			if all {
				truth[r.Head] = true
				changed = true
			}
		}
	}
	return truth
}

func randomRules(rng *rand.Rand, u Universe, n int) []Rule {
	rules := make([]Rule, 0, n)
	size := u.Size()
	for i := 0; i < n; i++ {
		// Heads must be IDB (local or superscripted).
		head := Atom(rng.Intn(3 * u.NumIDB))
		body := make([]Atom, rng.Intn(4))
		for j := range body {
			body[j] = Atom(rng.Intn(size))
		}
		rules = append(rules, NewRule(head, body...))
	}
	// Some facts, including EDB facts.
	for i := 0; i < 1+rng.Intn(3); i++ {
		rules = append(rules, Rule{Head: Atom(rng.Intn(size))})
	}
	return rules
}

func TestDerivableMatchesNaiveClosure(t *testing.T) {
	u := Universe{NumIDB: 4, NumEDB: 3}
	s := NewSolver(u)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rules := randomRules(rng, u, 1+rng.Intn(12))
		got := s.Derivable(rules)
		want := closure(rules, u.Size())
		gotSet := make([]bool, u.Size())
		for _, a := range got {
			gotSet[a] = true
		}
		return reflect.DeepEqual(gotSet, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLTURResidualEquivalence: the residual program must have exactly the
// same IDB consequences as the original under any additional IDB facts.
func TestLTURResidualEquivalence(t *testing.T) {
	u := Universe{NumIDB: 3, NumEDB: 2}
	s := NewSolver(u)
	nIDB := 3 * u.NumIDB
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rules := randomRules(rng, u, 1+rng.Intn(10))
		res := s.LTUR(rules)
		// Residual must be EDB-free.
		for _, r := range res.Rules {
			if u.IsEDB(r.Head) {
				return false
			}
			for _, a := range r.Body {
				if u.IsEDB(a) {
					return false
				}
			}
		}
		// For every subset of IDB atoms as extra facts (sampled), the
		// derivable IDB atoms agree.
		for trial := 0; trial < 8; trial++ {
			var extra []Rule
			for a := 0; a < nIDB; a++ {
				if rng.Intn(3) == 0 {
					extra = append(extra, Rule{Head: Atom(a)})
				}
			}
			w1 := closure(append(append([]Rule{}, rules...), extra...), u.Size())
			w2 := closure(append(append([]Rule{}, res.Rules...), extra...), u.Size())
			for a := 0; a < nIDB; a++ {
				if w1[a] != w2[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLTURDropsFalseEDBRules(t *testing.T) {
	u := Universe{NumIDB: 2, NumEDB: 2}
	s := NewSolver(u)
	// X0 <- edb0 (true fact); X1 <- edb1 (absent, so false).
	rules := []Rule{
		{Head: u.EDBAtom(0)},
		NewRule(u.LocalAtom(0), u.EDBAtom(0)),
		NewRule(u.LocalAtom(1), u.EDBAtom(1)),
	}
	res := s.LTUR(rules)
	want := (&Program{Rules: []Rule{{Head: u.LocalAtom(0)}}}).Canon()
	if res.Key() != want.Key() {
		t.Errorf("residual = %s, want %s", res, want)
	}
}

func TestLTURMinimises(t *testing.T) {
	u := Universe{NumIDB: 4, NumEDB: 0}
	s := NewSolver(u)
	// X1 <- X0; X1 <- X0,X2 (subsumed); X2 <- X2 (tautology).
	rules := []Rule{
		NewRule(1, 0),
		NewRule(1, 0, 2),
		NewRule(2, 2),
	}
	res := s.LTUR(rules)
	want := (&Program{Rules: []Rule{NewRule(1, 0)}}).Canon()
	if res.Key() != want.Key() {
		t.Errorf("residual = %s, want %s", res, want)
	}
}

// TestContractExample44 reproduces Example 4.4 of the paper exactly.
func TestContractExample44(t *testing.T) {
	u := Universe{NumIDB: 12, NumEDB: 0}
	l := func(i int) Atom { return u.LocalAtom(i) }
	s1 := func(i int) Atom { return u.SuperAtom(1, i) }
	s2 := func(i int) Atom { return u.SuperAtom(2, i) }
	p := (&Program{Rules: []Rule{
		NewRule(l(0), l(1), l(2)),
		NewRule(l(1), s1(3)),
		NewRule(l(2), s1(4)),
		NewRule(s1(3), s1(5)),
		NewRule(s1(4), s1(5), s1(6)),
		NewRule(s1(5), l(7)),
		NewRule(s1(6), l(7), l(8)),
		NewRule(l(8), s2(9), s2(10)),
		NewRule(s2(9), l(11)),
	}}).Canon()
	got := Contract(u, p)
	want := (&Program{Rules: []Rule{
		NewRule(l(0), l(1), l(2)),
		NewRule(l(1), l(7)),
		NewRule(l(2), l(7), l(8)),
	}}).Canon()
	if got.Key() != want.Key() {
		t.Errorf("Contract = %s\nwant %s", got, want)
	}
}

// TestContractPreservesLocalConsequences: for every set B of local atoms
// given as extra facts, the local atoms derivable from Contract(P) + B must
// equal those derivable from P + B (restricted to atoms derivable without
// help from dangling superscripted predicates, which Contract eliminates).
func TestContractPreservesLocalConsequences(t *testing.T) {
	u := Universe{NumIDB: 4, NumEDB: 0}
	s := NewSolver(u)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		raw := randomRules(rng, u, 1+rng.Intn(9))
		// Contract requires an LTUR residual (EDB-free, no trivial facts
		// left in bodies).
		p := s.LTUR(raw)
		q := Contract(u, p)
		// Contracted program mentions only local atoms.
		for _, r := range q.Rules {
			if !u.IsLocal(r.Head) {
				return false
			}
			for _, a := range r.Body {
				if !u.IsLocal(a) {
					return false
				}
			}
		}
		for b := 0; b < 1<<u.NumIDB; b++ {
			var extra []Rule
			for i := 0; i < u.NumIDB; i++ {
				if b&(1<<i) != 0 {
					extra = append(extra, Rule{Head: u.LocalAtom(i)})
				}
			}
			w1 := closure(append(append([]Rule{}, p.Rules...), extra...), u.Size())
			w2 := closure(append(append([]Rule{}, q.Rules...), extra...), u.Size())
			for i := 0; i < u.NumIDB; i++ {
				if w1[i] != w2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSubsetSorted(t *testing.T) {
	cases := []struct {
		a, b []Atom
		want bool
	}{
		{nil, nil, true},
		{nil, []Atom{1}, true},
		{[]Atom{1}, nil, false},
		{[]Atom{1, 3}, []Atom{1, 2, 3}, true},
		{[]Atom{1, 4}, []Atom{1, 2, 3}, false},
		{[]Atom{2}, []Atom{1, 2, 3}, true},
	}
	for _, c := range cases {
		if got := isSubsetSorted(c.a, c.b); got != c.want {
			t.Errorf("isSubsetSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPushDownProgram(t *testing.T) {
	u := Universe{NumIDB: 3, NumEDB: 0}
	p := (&Program{Rules: []Rule{NewRule(u.LocalAtom(0), u.LocalAtom(1))}}).Canon()
	got := PushDownProgram(u, 2, p)
	want := NewRule(u.SuperAtom(2, 0), u.SuperAtom(2, 1))
	if len(got) != 1 || compareRules(got[0], want) != 0 {
		t.Errorf("PushDownProgram = %v, want %v", got, want)
	}
}

func TestPredsHelpers(t *testing.T) {
	u := Universe{NumIDB: 2, NumEDB: 1}
	atoms := []Atom{u.LocalAtom(0), u.SuperAtom(1, 1), u.SuperAtom(2, 0), u.EDBAtom(0)}
	if got := PredsInSpace(u, atoms, Super1); !reflect.DeepEqual(got, []Atom{u.SuperAtom(1, 1)}) {
		t.Errorf("PredsInSpace(Super1) = %v", got)
	}
	up := PushUpFrom(u, 1, []Atom{u.SuperAtom(1, 1)})
	if !reflect.DeepEqual(up, []Atom{u.LocalAtom(1)}) {
		t.Errorf("PushUpFrom = %v", up)
	}
}

// TestContractIdempotent: contracting an already-contracted program is a
// no-op.
func TestContractIdempotent(t *testing.T) {
	u := Universe{NumIDB: 4, NumEDB: 0}
	s := NewSolver(u)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := s.LTUR(randomRules(rng, u, 1+rng.Intn(9)))
		q := Contract(u, p)
		return Contract(u, q).Key() == q.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
