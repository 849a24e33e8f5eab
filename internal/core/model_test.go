package core_test

// The model-based differential harness: the repository's correctness
// argument for Theorem 4.1 — the two-phase automaton evaluation selects
// exactly what the TMNF program's fixpoint semantics selects — run over
// every way the system can be asked a query. One seeded generator draws a
// case: a document, a storage form holding it, a query set and the
// execution options; one checker runs the case through the public Session
// surface and compares every answer with three oracles that share no code
// with the driver (naive.Evaluate, xpath.Interp, automata.SelectTMNF),
// and every profile with the two-linear-scans cost model. TestModel runs a
// seeded table whose cases enumerate the axes and asserts that each axis
// was reached; FuzzModel runs the generator on fuzzed seeds.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"arb"
	"arb/internal/automata"
	"arb/internal/core"
	"arb/internal/naive"
	"arb/internal/storage"
	"arb/internal/testutil"
	"arb/internal/tree"
	"arb/internal/vstore"
	"arb/internal/workload"
	"arb/internal/xpath"
)

// The generator's axes. A case names one value of each; its seed draws the
// rest.
var (
	docKinds   = []string{"random", "clustered", "treebank", "acgt-flat", "acgt-infix"}
	formKinds  = []string{"tree", "raw", "lz-4k", "lz-16k", "versioned"}
	queryKinds = []string{"tmnf", "regex", "xpath"}
)

// staOraclePreds bounds the programs also checked against the selecting
// tree automaton of Section 3 (automata.SelectTMNF), which is exponential
// in the predicates.
const staOraclePreds = 8

// lowered are the knobs of a small case: the prune and parallel paths run
// on documents of a few thousand nodes.
var lowered = core.Knobs{ParMinNodes: 1, ParMinTask: 64, PruneMinNodes: 1, PruneMinExtent: 8}

// modelCase is one draw of the generator.
type modelCase struct {
	seed             int64
	doc, form, query int  // indices into the axes
	production       bool // default knobs and ≥ 32 768 nodes
	small            bool // a random tree of at most 60 nodes (runSmall)
}

func (c modelCase) String() string {
	size := ""
	switch {
	case c.production:
		size = " at the production thresholds"
	case c.small:
		size = " of at most 60 nodes"
	}
	return fmt.Sprintf("seed %d: %s document%s, %s form, %s queries",
		c.seed, docKinds[c.doc], size, formKinds[c.form], queryKinds[c.query])
}

// coverage counts what the runs of one test reached, so the seeded table
// can fail when a change to the generator or the library stops reaching an
// axis.
type coverage map[string]int

// item is one query of a case's query set.
type item struct {
	src  string
	prog *arb.Program    // a TMNF program, or
	xq   *arb.XPathQuery // a Core XPath query
}

func (it item) preds() int {
	if it.prog != nil {
		return len(it.prog.Queries())
	}
	return 1
}

func (it item) passes() int {
	if it.prog != nil {
		return 1
	}
	return len(it.xq.Passes) + 1
}

// main is the program of the item's main pass.
func (it item) main() *arb.Program {
	if it.prog != nil {
		return it.prog
	}
	return it.xq.Main
}

func (it item) prepare(t *testing.T, sess *arb.Session) *arb.PreparedQuery {
	t.Helper()
	var pq *arb.PreparedQuery
	var err error
	if it.prog != nil {
		pq, err = sess.Prepare(it.prog)
	} else {
		pq, err = sess.PrepareXPath(it.xq)
	}
	if err != nil {
		t.Fatalf("%s: %v", it.src, err)
	}
	return pq
}

func (it item) batchItem() any {
	if it.prog != nil {
		return it.prog
	}
	return it.xq
}

// oracle returns what the item selects over tr, per query predicate. A
// program is evaluated by the naive fixpoint and, with at most
// staOraclePreds predicates, by the STA semantics; an XPath query by the
// direct interpreter and by the naive fixpoint of its TMNF passes chained
// through aux masks. The oracles must agree with each other.
func (it item) oracle(t *testing.T, tr *arb.Tree) [][]arb.NodeID {
	t.Helper()
	if it.xq != nil {
		var want []arb.NodeID
		for v, ok := range xpath.NewInterp(tr).Eval(it.xq.Path) {
			if ok {
				want = append(want, arb.NodeID(v))
			}
		}
		aux := make([]uint16, tr.Len())
		get := func(v tree.NodeID) uint16 { return aux[v] }
		for k, pass := range it.xq.Passes {
			r := naive.EvaluateAux(tr, pass, get)
			for _, v := range r.Selected(pass.Queries()[0]) {
				aux[v] |= 1 << k
			}
		}
		if got := naive.EvaluateAux(tr, it.xq.Main, get).Selected(it.xq.Main.Queries()[0]); !slices.Equal(got, want) {
			t.Fatalf("%s: the interpreter selects %d nodes, the naive fixpoint of the translation %d", it.src, len(want), len(got))
		}
		return [][]arb.NodeID{want}
	}
	fix := naive.Evaluate(tr, it.prog)
	var sta map[arb.Pred][]bool
	if it.prog.NumPreds() <= staOraclePreds {
		var err error
		if sta, err = automata.SelectTMNF(tr, it.prog); err != nil {
			t.Fatalf("%s: SelectTMNF: %v", it.src, err)
		}
	}
	out := make([][]arb.NodeID, len(it.prog.Queries()))
	for i, q := range it.prog.Queries() {
		out[i] = fix.Selected(q)
		if sta == nil {
			continue
		}
		for v, ok := range sta[q] {
			if ok != fix.Holds(q, arb.NodeID(v)) {
				t.Fatalf("%s: the STA semantics and the naive fixpoint disagree at node %d\n%s", it.src, v, it.prog)
			}
		}
	}
	return out
}

func programItem(t *testing.T, src string, queries ...string) item {
	t.Helper()
	p, err := arb.ParseProgram(src)
	if err == nil && len(queries) > 0 {
		err = p.SetQueries(queries...)
	}
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return item{src: src, prog: p}
}

func xpathItem(t *testing.T, src string) item {
	t.Helper()
	q, err := arb.ParseXPath(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return item{src: src, xq: q}
}

// labelItem selects the nodes labelled by any of tags: a query the
// bottom-up states decide (one scan) and the result cache can subsume.
func labelItem(t *testing.T, tags ...string) item {
	var sb strings.Builder
	for _, tag := range tags {
		fmt.Fprintf(&sb, "QUERY :- Label[%s]; ", tag)
	}
	return programItem(t, sb.String())
}

// mnode is one node of the oracle's document model, in document order: an
// element or a character, at its document depth (the root's is 1).
type mnode struct {
	name  string // "" for a character
	char  byte
	depth int
}

type docModel []mnode

func modelOf(tr *arb.Tree) docModel {
	depth := tr.DocDepth()
	m := make(docModel, tr.Len())
	for v := range m {
		l := tr.Label(arb.NodeID(v))
		m[v].depth = int(depth[v])
		if l.IsChar() {
			m[v].char = l.Char()
		} else {
			m[v].name = tr.Names().Name(l)
		}
	}
	return m
}

func (m docModel) tree(t *testing.T) *arb.Tree {
	t.Helper()
	b := arb.NewTreeBuilder()
	open := 0
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range m {
		for ; open >= n.depth; open-- {
			must(b.End())
		}
		if n.name == "" {
			must(b.Text([]byte{n.char}))
		} else {
			must(b.Begin(n.name))
			open++
		}
	}
	for ; open > 0; open-- {
		must(b.End())
	}
	tr, err := b.Tree()
	must(err)
	return tr
}

// end is the first node after v's XML subtree.
func (m docModel) end(v int) int {
	e := v + 1
	for e < len(m) && m[e].depth > m[v].depth {
		e++
	}
	return e
}

// patch applies op to the model as a versioned session applies it to its
// store, with frag's depths counted from 1.
func (m docModel) patch(op string, v int, frag docModel) docModel {
	at := func(depth int) docModel {
		out := slices.Clone(frag)
		for i := range out {
			out[i].depth += depth - 1
		}
		return out
	}
	switch op {
	case "replace":
		return slices.Concat(m[:v], at(m[v].depth), m[m.end(v):])
	case "delete":
		return slices.Concat(m[:v], m[m.end(v):])
	default: // insert-child
		return slices.Concat(m[:v+1], at(m[v].depth+1), m[v+1:])
	}
}

// randomFragment draws an element-only fragment of at most max nodes; one
// tag in eight is freshly minted, so patches grow the label table.
func randomFragment(rng *rand.Rand, tags []string, serial *int, max int) docModel {
	var m docModel
	budget := 1 + rng.Intn(max)
	var gen func(depth int)
	gen = func(depth int) {
		budget--
		name := tags[rng.Intn(len(tags))]
		if rng.Intn(8) == 0 {
			*serial++
			name = fmt.Sprintf("g%d", *serial)
		}
		m = append(m, mnode{name: name, depth: depth})
		for budget > 0 && rng.Intn(2) == 0 {
			gen(depth + 1)
		}
	}
	gen(1)
	return m
}

// document draws the case's document: its tree, the tag alphabet its
// queries draw from, and the R step of its benchmark thread.
func document(t *testing.T, rng *rand.Rand, kind int, production bool) (*arb.Tree, []string, string) {
	t.Helper()
	switch docKinds[kind] {
	case "random":
		tr := testutil.RandomTree(rng, 3000)
		for tr.Len() < 300 {
			tr = testutil.RandomTree(rng, 3000)
		}
		return tr, testutil.Tags, workload.RTreebank
	case "clustered":
		sections, per := 4+rng.Intn(4), 30+rng.Intn(60)
		if production {
			sections, per = 8, 300
		}
		return clustered(t, sections, per), []string{"item", "name", "flag", "junk", "catalog"}, workload.RTreebank
	case "treebank":
		tr, err := workload.TreebankTree(workload.TreebankConfig{Seed: rng.Int63(), Sentences: 8 + rng.Intn(16)})
		if err != nil {
			t.Fatal(err)
		}
		return tr, workload.GrammarAlphabet, workload.RTreebank
	case "acgt-flat":
		return workload.FlatTree(workload.Sequence(rng.Int63(), 500+rng.Intn(2500))), workload.ACGTAlphabet, workload.RFlat
	default:
		n := 1<<11 - 1
		if production {
			n = 1<<15 - 1
		}
		return workload.InfixTree(workload.Sequence(rng.Int63(), n)), workload.ACGTAlphabet, workload.RInfix
	}
}

// clustered builds a library of alternating archive sections (junk
// elements with filler text) and catalog sections (item/name/flag), so
// that whole sections are extents a label-selective query prunes.
func clustered(t *testing.T, sections, per int) *arb.Tree {
	t.Helper()
	var sb strings.Builder
	for s := range sections {
		if s%2 == 0 {
			sb.WriteString("<archive>")
			for j := range per {
				fmt.Fprintf(&sb, "<junk>filler-%05d-%08x</junk>", j, uint32(j)*2654435761)
			}
			sb.WriteString("</archive>")
			continue
		}
		sb.WriteString("<catalog>")
		for i := range per {
			fmt.Fprintf(&sb, "<item><name>product-%06d</name>%s</item>", i, strings.Repeat("<flag>y</flag>", min(i%3, 1)))
		}
		sb.WriteString("</catalog>")
	}
	tr, err := arb.ParseXML(strings.NewReader("<library>" + sb.String() + "</library>"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// queries draws the case's query set over the document's alphabet, plus a
// broad and a narrow label query for the result cache to subsume.
func queries(t *testing.T, rng *rand.Rand, kind int, tags []string, rstep string) []item {
	t.Helper()
	var items []item
	tag := func() string { return tags[rng.Intn(len(tags))] }
	switch queryKinds[kind] {
	case "tmnf":
		relabel := strings.NewReplacer("Label[a]", "Label["+tag()+"]", "Label[b]", "Label["+tag()+"]")
		src := relabel.Replace(testutil.RandomProgram(rng, 1+rng.Intn(5), 1+rng.Intn(12)))
		items = append(items, programItem(t, src, "P0"))
		// Every predicate a query: multiple query evaluation (Section 7).
		p := programItem(t, relabel.Replace(testutil.RandomProgram(rng, 2+rng.Intn(3), 2+rng.Intn(10)))).prog
		var all []string
		for i := range p.NumPreds() {
			if name := p.PredName(arb.Pred(i)); strings.HasPrefix(name, "P") {
				all = append(all, name)
			}
		}
		if err := p.SetQueries(all...); err != nil {
			t.Fatal(err)
		}
		items = append(items, item{src: p.String(), prog: p})
		cat := testutil.RandomCaterpillarProgram(rng)
		items = append(items, item{src: cat.String(), prog: cat})
	case "regex":
		steps := []string{rstep, workload.RTreebank, workload.RFlat, workload.RInfix}
		for range 3 {
			rx := workload.RandomPathRegex(rng, 3+rng.Intn(5), tags)
			items = append(items, programItem(t, rx.TMNFSource(steps[rng.Intn(len(steps))])))
		}
	default:
		for range 2 {
			items = append(items, xpathItem(t, randomXPath(rng, tags)))
		}
		a, b, c := tag(), tag(), tag()
		items = append(items, xpathItem(t, fmt.Sprintf("//%s[not(%s[not(%s)])]", a, b, c)))
	}
	broad, narrow := tag(), tag()
	return append(items, labelItem(t, narrow, broad), labelItem(t, narrow))
}

// randomXPath draws a Core XPath query over the tags, with predicates,
// nested not(..), and/or, and every axis.
func randomXPath(rng *rand.Rand, tags []string) string {
	axes := []string{"child", "descendant", "self", "parent", "ancestor",
		"descendant-or-self", "ancestor-or-self",
		"following-sibling", "preceding-sibling", "following", "preceding"}
	tests := append(slices.Clone(tags[:min(3, len(tags))]), "*", "node()", "text()")
	var step func(d int) string
	step = func(d int) string {
		s := axes[rng.Intn(len(axes))] + "::" + tests[rng.Intn(len(tests))]
		if d < 2 && rng.Intn(2) == 0 {
			inner := step(d + 1)
			if rng.Intn(2) == 0 {
				inner = "not(" + inner + ")"
			}
			if rng.Intn(3) == 0 {
				op := " and "
				if rng.Intn(2) == 0 {
					op = " or "
				}
				inner += op + step(d+1)
			}
			s += "[" + inner + "]"
		}
		return s
	}
	parts := make([]string, 1+rng.Intn(3))
	for i := range parts {
		parts[i] = step(0)
	}
	return "//" + strings.Join(parts, "/")
}

// checker runs one case's executions and holds them to the oracles.
type checker struct {
	t        *testing.T
	rng      *rand.Rand
	cov      coverage
	c        *modelCase
	dir      string
	sess     *arb.Session
	oracle   *arb.Tree // the document the session holds now
	model    docModel  // and its model, for patches
	tags     []string
	items    []item
	pqs      []*arb.PreparedQuery // the items', prepared once and kept warm
	want     [][][]arb.NodeID     // per item, per query predicate
	lz       bool
	replaced bool // a replace patch has been committed
	serial   int
	admitted map[*arb.Program]verdicts // core's verdicts at this version
}

// verdicts are a program's one-scan and forward verdicts (core.Verdicts).
type verdicts struct{ oneScan, forward bool }

func (k *checker) label(format string, args ...any) string {
	return fmt.Sprintf("%v: ", *k.c) + fmt.Sprintf(format, args...)
}

func (k *checker) refresh() {
	k.want = make([][][]arb.NodeID, len(k.items))
	for i, it := range k.items {
		k.want[i] = it.oracle(k.t, k.oracle)
	}
}

// same holds res, an answer to the query predicates qs, to the oracles'
// want.
func (k *checker) same(label string, qs []arb.Pred, res *arb.Result, want [][]arb.NodeID) {
	k.t.Helper()
	for i, q := range qs {
		if got := res.Selected(q); !slices.Equal(got, want[i]) {
			k.t.Fatalf("%s: predicate %d selects %d nodes, the oracles %d", label, i, len(got), len(want[i]))
		}
	}
}

// profile holds an execution of members (one item, or a batch's) to the
// cost model: every phase that ran reads or skips each byte once per pass
// — phase 1 in every pass but the forward ones, phase 2 in every pass but
// the backward one-scan ones; a single pass takes one backward scan
// exactly when the bottom-up states decide every lane of its members (and
// the run reads no aux input, marks no output and may take one scan), else
// one forward scan — no phase 1 and no state bytes — exactly when the
// records decide every member's bottom-up states (and the run may take one
// scan), and otherwise writes scanned nodes × state width × the lanes that
// need phase 2; runs that may not prune do not; and each member's every
// pass credits every node. Of the bytes a phase hands its kernels, those
// the index serves (IndexBytes) cost no physical read, and a run with no
// holes — one worker, nothing pruned — has none.
func (k *checker) profile(label string, prof *arb.Profile, opts arb.ExecOpts, members ...item) {
	k.t.Helper()
	passes, memberPasses := 0, 0
	for _, it := range members {
		passes = max(passes, it.passes())
		memberPasses += it.passes()
	}
	n := k.sess.Len()
	data := n * storage.NodeSize
	d := prof.Disk
	one := d.OneScan
	if prof.Passes != passes || prof.ResultCache == "hit" || prof.ResultCache == "subsumed" {
		k.t.Fatalf("%s: %d passes (cache %q), want %d", label, prof.Passes, prof.ResultCache, passes)
	}
	// The forward passes are the one-scan passes without phase 1; the last
	// pass of a multi-pass run reads aux input and is never one.
	fwd := passes - int(d.Phase1.Nodes/n)
	if d.Phase1.Nodes%n != 0 || fwd < 0 || fwd > one || passes > 1 && fwd == passes {
		k.t.Fatalf("%s: phase 1 visited %d nodes over %d passes, %d of them one-scan", label, d.Phase1.Nodes, passes, one)
	}
	if d.Phase1.Bytes+d.Phase1.SkippedBytes != int64(passes-fwd)*data || d.Phase1.Nodes != int64(passes-fwd)*n ||
		d.Phase2.Bytes+d.Phase2.SkippedBytes != int64(passes-one+fwd)*data || d.Phase2.Nodes != int64(passes-one+fwd)*n {
		k.t.Fatalf("%s: scans %+v over %d passes, %d of them one-scan, %d forward: want every byte read or skipped once per phase that ran", label, d, passes, one, fwd)
	}
	if one == passes && d.StateBytes != 0 {
		k.t.Fatalf("%s: one-scan run wrote %d state bytes", label, d.StateBytes)
	}
	forced := core.CurrentKnobs().OneScanOff
	if one > 0 && forced {
		k.t.Fatalf("%s: %d one-scan passes with one scan forced off", label, one)
	}
	// A pass skips a pruned extent in every phase it runs.
	pruned := max(d.Phase1.SkippedBytes, d.Phase2.SkippedBytes) / storage.NodeSize
	// MarkTo rides on the main pass alone: aux passes prune.
	if (pruned > 0) != (prof.Engine.PrunedNodes > 0) || (opts.NoPrune || passes == 1 && opts.MarkTo != nil) && pruned > 0 {
		k.t.Fatalf("%s: %d nodes pruned, %d bytes skipped", label, prof.Engine.PrunedNodes, d.Phase1.SkippedBytes)
	}
	if prof.Engine.Nodes != int64(memberPasses)*n {
		k.t.Fatalf("%s: the run credits %d nodes, want %d passes × %d", label, prof.Engine.Nodes, memberPasses, n)
	}
	if passes == 1 {
		lanes, twoScan := k.lanes(members, forced || opts.MarkTo != nil)
		forward := !forced && twoScan > 0 && !slices.ContainsFunc(members, func(it item) bool { return !k.verdicts(it.main()).forward })
		if (one == 1) != (twoScan == 0 || forward) || (fwd == 1) != forward {
			k.t.Fatalf("%s: %d one-scan passes, %d forward, with %d of %d lanes needing phase 2 and forward %v", label, one, fwd, twoScan, lanes, forward)
		}
		if prof.Engine.PrunedNodes != int64(len(members))*pruned {
			k.t.Fatalf("%s: the run credits %d pruned nodes, want %d members × %d", label, prof.Engine.PrunedNodes, len(members), pruned)
		}
		if slots := (n - pruned) * int64(twoScan); slots > 0 && !forward {
			w := d.StateBytes / slots
			if d.StateBytes%slots != 0 || w != 1 && w != 2 && w != 4 {
				k.t.Fatalf("%s: %d state bytes, not %d scanned nodes × width × %d lanes", label, d.StateBytes, n-pruned, twoScan)
			}
		}
		if len(members) > 1 && twoScan > 0 && twoScan < lanes {
			k.cov["mixed-lanes"]++
		}
	}
	for _, ph := range []storage.ScanStats{d.Phase1, d.Phase2} {
		read := ph.Bytes - ph.IndexBytes
		if ph.IndexBytes < 0 || read < 0 || !k.lz && ph.PhysicalBytes != read || k.lz && read > 0 && ph.PhysicalBytes == 0 {
			k.t.Fatalf("%s: %d physical bytes for %d logical, %d of them served by the index", label, ph.PhysicalBytes, ph.Bytes, ph.IndexBytes)
		}
		if ph.IndexBytes > 0 {
			if opts.NoPrune && opts.Workers == 1 {
				k.t.Fatalf("%s: a scan with no holes served %d bytes from the index", label, ph.IndexBytes)
			}
			k.cov["index-"+formKinds[k.c.form]]++
			if k.replaced {
				k.cov["index-after-replace"]++
			}
		}
	}
	if info, ok := k.sess.Compression(); ok && opts.NoPrune && opts.Workers <= 1 {
		if d.Phase1.PhysicalBytes != int64(passes-fwd)*info.PayloadBytes || fwd == passes && d.Phase2.PhysicalBytes != info.PayloadBytes {
			k.t.Fatalf("%s: a full sequential scan read %d+%d physical bytes, the container holds %d", label, d.Phase1.PhysicalBytes, d.Phase2.PhysicalBytes, info.PayloadBytes)
		}
	}
	if pruned > 0 {
		k.cov["pruned"]++
	}
	if one > fwd {
		k.cov["one-scan"]++
	}
	if fwd > 0 {
		k.cov["forward"]++
	}
}

// lanes reports how many lanes a one-pass batch of members splits into and
// how many of them need phase 2: every lane when the run may not take one
// scan, else those holding a member whose selection the bottom-up states do
// not decide. Both come from core's own lane split and analysis, so they
// check how the driver follows them; the answers check the verdicts.
func (k *checker) lanes(members []item, twoScans bool) (lanes, twoScan int) {
	progs := make([]*arb.Program, len(members))
	for m, it := range members {
		progs[m] = it.main()
	}
	ls, err := core.Lanes(k.sess.Names(), progs...)
	if err != nil {
		k.t.Fatal(err)
	}
	for _, l := range ls {
		if twoScans || slices.ContainsFunc(l, func(m int) bool { return !k.verdicts(progs[m]).oneScan }) {
			twoScan++
		}
	}
	return len(ls), twoScan
}

// verdicts is core.Verdicts over the session's names, once per program and
// version.
func (k *checker) verdicts(p *arb.Program) verdicts {
	v, seen := k.admitted[p]
	if !seen {
		var err error
		if v.oneScan, v.forward, err = core.Verdicts(k.sess.Names(), p); err != nil {
			k.t.Fatal(err)
		}
		if k.admitted == nil {
			k.admitted = map[*arb.Program]verdicts{}
		}
		k.admitted[p] = v
	}
	return v
}

// sameScans holds forced, a run with two scans forced, to allowed, the same
// run with one scan allowed, on engines it warmed: the same phase 1 —
// where allowed took it: a single forward pass read in its phase 2 what
// forced reads in phase 1.
func (k *checker) sameScans(label string, forced, allowed *arb.Profile) {
	k.t.Helper()
	a, f := allowed.Disk, forced.Disk
	switch n := k.sess.Len(); {
	case f.OneScan != 0:
		k.t.Fatalf("%s: %d one-scan passes with two scans forced", label, f.OneScan)
	case a.Phase1.Nodes == int64(allowed.Passes)*n:
		if f.Phase1 != a.Phase1 {
			k.t.Fatalf("%s: phase 1 %+v with two scans forced; with one scan allowed %+v", label, f.Phase1, a.Phase1)
		}
	case allowed.Passes == 1:
		if f.Phase1.Nodes != a.Phase2.Nodes || f.Phase1.Bytes != a.Phase2.Bytes || f.Phase1.SkippedBytes != a.Phase2.SkippedBytes {
			k.t.Fatalf("%s: phase 1 %+v with two scans forced; the forward scan %+v", label, f.Phase1, a.Phase2)
		}
	}
}

func (k *checker) exec(label string, pq *arb.PreparedQuery, opts arb.ExecOpts) (*arb.Result, *arb.Profile) {
	k.t.Helper()
	opts.Stats = true
	res, prof, err := pq.Exec(context.Background(), opts)
	if err != nil {
		k.t.Fatalf("%s: %v", label, err)
	}
	return res, prof
}

// scalar runs every item alone at one and four workers (every other item
// unpruned) and with one scan forced off, holding each answer to the
// oracles and each pair of runs to the same scans.
func (k *checker) scalar() {
	for i, it := range k.items {
		pq := k.pqs[i]
		noPrune := i%2 == 1 // so unpruned runs resume blocks pruned ones decoded in part
		var first *arb.Profile
		for _, workers := range []int{1, 4} {
			opts := arb.ExecOpts{Workers: workers, NoPrune: noPrune}
			label := k.label("%s, %d workers, noprune %v", it.src, workers, noPrune)
			res, prof := k.exec(label, pq, opts)
			k.same(label, pq.Queries(), res, k.want[i])
			k.profile(label, prof, opts, it)
			if first == nil {
				first = prof
				continue
			}
			// The chunked run reads, skips and credits what the sequential one does.
			a, b := prof.Disk, first.Disk
			if a.Phase1.Bytes != b.Phase1.Bytes || a.Phase1.SkippedBytes != b.Phase1.SkippedBytes || a.Phase2.Bytes != b.Phase2.Bytes ||
				a.Phase2.SkippedBytes != b.Phase2.SkippedBytes || prof.Engine.Nodes != first.Engine.Nodes || prof.Engine.PrunedNodes != first.Engine.PrunedNodes {
				k.t.Fatalf("%s: scans %+v and credits %+v, one worker's %+v and %+v", label, a, prof.Engine, b, first.Engine)
			}
			k.cov["parallel"]++
		}
		if n, err := pq.Count(context.Background()); err != nil || n != int64(len(k.want[i][0])) {
			k.t.Fatalf("%s: Count %d (%v), the oracles %d", k.label("%s", it.src), n, err, len(k.want[i][0]))
		}
		restore := twoScans()
		opts := arb.ExecOpts{Workers: 1, NoPrune: noPrune}
		label := k.label("%s, two scans forced, noprune %v", it.src, noPrune)
		res, prof := k.exec(label, pq, opts)
		k.profile(label, prof, opts, it)
		restore()
		k.same(label, pq.Queries(), res, k.want[i])
		k.sameScans(label, prof, first)
		k.cov["forced-two-scans"]++
	}
}

// batch runs items drawn with replacement, in random order, as one batch —
// through PrepareBatch or through BatchOf over prepared handles, warm ones
// (the same one twice, when drawn twice) beside freshly prepared cold ones —
// widened past one lane's 64 query predicates with label queries when
// drawn; then once more with one scan forced off.
func (k *checker) batch(wide bool) {
	var members []item
	var want [][][]arb.NodeID
	var pqs []*arb.PreparedQuery
	shared := false
	for range 1 + k.rng.Intn(len(k.items)+1) {
		i := k.rng.Intn(len(k.items))
		pq := k.pqs[i]
		if k.rng.Intn(3) == 0 {
			pq = k.items[i].prepare(k.t, k.sess)
		}
		shared = shared || slices.Contains(pqs, pq)
		members = append(members, k.items[i])
		want = append(want, k.want[i])
		pqs = append(pqs, pq)
	}
	if wide {
		preds := 0
		for _, it := range members {
			preds += it.preds()
		}
		for i := 0; preds <= 64; i++ {
			it := labelItem(k.t, k.tags[i%len(k.tags)])
			members, want = append(members, it), append(want, it.oracle(k.t, k.oracle))
			pqs = append(pqs, it.prepare(k.t, k.sess))
			preds++
		}
		k.cov["over-64-predicates"]++
	}
	var pb *arb.PreparedBatch
	var err error
	if k.rng.Intn(2) == 0 {
		items := make([]any, len(members))
		for m, it := range members {
			items[m] = it.batchItem()
		}
		pb, err = k.sess.PrepareBatch(items...)
	} else {
		pb, err = k.sess.BatchOf(pqs...)
		if shared {
			k.cov["shared-handle"]++
		}
	}
	if err != nil {
		k.t.Fatal(err)
	}
	rounds := 0
	for _, it := range members {
		rounds = max(rounds, it.passes())
	}
	if pb.Rounds() != rounds {
		k.t.Fatalf("%s: %d rounds, want the deepest member's %d passes", k.label("batch"), pb.Rounds(), rounds)
	}
	opts := arb.ExecOpts{Workers: 1 + 3*k.rng.Intn(2), NoPrune: k.rng.Intn(3) == 0, Stats: true}
	label := k.label("batch of %d, %d workers, noprune %v", len(members), opts.Workers, opts.NoPrune)
	prof := k.execBatch(label, pb, opts, members, want)
	// With one scan forced off, on engines the run above warmed: the same
	// phase 1, and the lanes it decided in phase 1 take state slots of the
	// width the others took — unless the run above widened to 4 bytes,
	// which a warm run need not.
	restore := twoScans()
	forced := k.execBatch(label+", two scans forced", pb, opts, members, want)
	restore()
	k.sameScans(label+", forced two scans", forced, prof)
	if lanes, twoScan := k.lanes(members, false); rounds == 1 && twoScan > 0 && prof.Disk.Phase1.Nodes > 0 {
		scanned := k.sess.Len() - prof.Disk.Phase1.SkippedBytes/storage.NodeSize
		w, fw := prof.Disk.StateBytes/(scanned*int64(twoScan)), forced.Disk.StateBytes/(scanned*int64(lanes))
		if w != fw && w != 4 {
			k.t.Fatalf("%s: %d-byte states in %d lanes, %d-byte in all %d with two scans forced", label, w, twoScan, fw, lanes)
		}
	}
	if len(members) == 1 { // a query is a batch of one: the same scans
		_, scalar := k.exec(label+", scalar", pqs[0], opts)
		if scalar.Disk != prof.Disk || scalar.Passes != prof.Passes {
			k.t.Fatalf("%s: %d passes and scans %+v, the scalar Exec's %d and %+v", label, prof.Passes, prof.Disk, scalar.Passes, scalar.Disk)
		}
	}
	counts, err := pb.Count(context.Background())
	for m := range members {
		if err != nil || counts[m] != int64(len(want[m][0])) {
			k.t.Fatalf("%s: member %d counts %v (%v), the oracles %d", label, m, counts, err, len(want[m][0]))
		}
	}
	k.cov["batch"]++
}

// execBatch runs pb and holds its answers to want and its profile to the
// cost model.
func (k *checker) execBatch(label string, pb *arb.PreparedBatch, opts arb.ExecOpts, members []item, want [][][]arb.NodeID) *arb.Profile {
	k.t.Helper()
	res, prof, err := pb.Exec(context.Background(), opts)
	if err != nil {
		k.t.Fatalf("%s: %v", label, err)
	}
	for m, it := range members {
		k.same(fmt.Sprintf("%s, member %d (%s)", label, m, it.src), pb.Queries(m), res[m], want[m])
	}
	k.profile(label, prof, opts, members...)
	return prof
}

// twoScans forces one scan off until the returned function is called.
func twoScans() (restore func()) {
	knobs := core.CurrentKnobs()
	knobs.OneScanOff = true
	return core.SetKnobs(knobs)
}

// cached runs the items through the session's result cache: the broad
// label query first, so that the narrow one may be answered from it, then
// every item twice, the second time an exact hit with no scan.
func (k *checker) cached() {
	k.sess.SetResultCache(1 << 22)
	order := append([]int{len(k.items) - 2, len(k.items) - 1}, k.rng.Perm(len(k.items))...)
	for _, i := range order {
		it, pq := k.items[i], k.pqs[i]
		for rep := 0; rep < 2; rep++ {
			opts := arb.ExecOpts{Workers: 1 + 3*k.rng.Intn(2), ResultCache: true}
			label := k.label("%s, result cache, run %d", it.src, rep)
			res, prof := k.exec(label, pq, opts)
			k.same(label, pq.Queries(), res, k.want[i])
			switch prof.ResultCache {
			case "hit", "subsumed":
				if prof.Passes != 0 || prof.Disk.Phase1.Bytes+prof.Disk.Phase2.Bytes != 0 {
					k.t.Fatalf("%s: a %s ran %d passes", label, prof.ResultCache, prof.Passes)
				}
				k.cov["cache-"+prof.ResultCache]++
				if tres, tprof, ok := pq.TryCached(); !ok || tprof.ResultCache != "hit" {
					k.t.Fatalf("%s: TryCached after a %s: %+v, %v", label, prof.ResultCache, tprof, ok)
				} else {
					k.same(label+", TryCached", pq.Queries(), tres, k.want[i])
				}
			case "miss":
				if rep == 1 {
					k.t.Fatalf("%s: a repeat at one version missed the cache", label)
				}
				k.profile(label, prof, opts, it)
			default:
				k.t.Fatalf("%s: result cache %q", label, prof.ResultCache)
			}
		}
	}
}

// markTo streams one item's marked document and holds it to the oracle
// document emitted with the oracles' selection marked.
func (k *checker) markTo() {
	i := k.rng.Intn(len(k.items))
	it, pq := k.items[i], k.pqs[i]
	mq := k.rng.Intn(it.preds())
	var got, want bytes.Buffer
	opts := arb.ExecOpts{Workers: 1 + 3*k.rng.Intn(2), MarkTo: &got, MarkQuery: mq}
	label := k.label("%s, marked output of predicate %d", it.src, mq)
	res, prof := k.exec(label, pq, opts)
	k.same(label, pq.Queries(), res, k.want[i])
	k.profile(label, prof, opts, it)
	sel := make([]bool, k.oracle.Len())
	for _, v := range k.want[i][mq] {
		sel[v] = true
	}
	if err := arb.NewSession(k.oracle).EmitXML(context.Background(), &want, func(v int64) bool { return sel[v] }); err != nil {
		k.t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		k.t.Fatalf("%s: %d bytes of marked XML differ from the oracle document's %d", label, got.Len(), want.Len())
	}
	k.cov["marked"]++
}

// patch commits a random mutation to a versioned session and applies it to
// the model in step; a compaction now and then commits the same document
// anew.
func (k *checker) patch() {
	ctx := context.Background()
	n := len(k.model)
	if k.rng.Intn(5) == 0 {
		if _, err := k.sess.Compact(ctx); err != nil {
			k.t.Fatal(err)
		}
		return
	}
	frag := randomFragment(k.rng, k.tags, &k.serial, 12)
	op := arb.PatchOp{Op: "insert-child"}
	if n > 1 {
		op = arb.PatchOp{Op: []string{"replace", "delete", "insert-child"}[k.rng.Intn(3)], Node: 1 + k.rng.Int63n(int64(n-1))}
	}
	if op.Op == "insert-child" {
		for k.model[op.Node].name == "" {
			op.Node--
		}
	}
	if op.Op != "delete" {
		op.Tree = frag.tree(k.t)
	}
	info, err := k.sess.Patch(ctx, op)
	if err != nil {
		k.t.Fatalf("%s: %v", k.label("%s at %d", op.Op, op.Node), err)
	}
	k.model = k.model.patch(op.Op, int(op.Node), frag)
	k.replaced = k.replaced || op.Op == "replace"
	k.admitted = nil
	k.oracle = k.model.tree(k.t)
	if info.Nodes != int64(k.oracle.Len()) || k.sess.Len() != int64(k.oracle.Len()) {
		k.t.Fatalf("%s: the store holds %d nodes, the model %d", k.label("%s at %d", op.Op, op.Node), k.sess.Len(), k.oracle.Len())
	}
}

// sameDocument holds the session's emitted document to the oracle's.
func (k *checker) sameDocument() {
	var got, want bytes.Buffer
	ctx := context.Background()
	if err := k.sess.EmitXML(ctx, &got, nil); err != nil {
		k.t.Fatal(err)
	}
	if err := arb.NewSession(k.oracle).EmitXML(ctx, &want, nil); err != nil {
		k.t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		k.t.Fatalf("%s: the session emits %d bytes, the oracle document %d", k.label("document"), got.Len(), want.Len())
	}
}

// sameIndex holds the index a versioned database reopens with — its
// manifest's, fixed up patch by patch — to the oracle document: the window
// passes serve records from it, so every entry's root record (label and
// child flags) must be the document's.
func (k *checker) sameIndex(base string) {
	ctx := context.Background()
	st, err := vstore.Open(ctx, base)
	if err != nil {
		k.t.Fatal(err)
	}
	defer st.Close()
	snap := st.Snapshot()
	defer snap.Release()
	ix, err := snap.DB().Index(ctx, 0)
	if err != nil {
		k.t.Fatal(err)
	}
	names := snap.Names()
	for _, e := range ix.Entries() {
		v := arb.NodeID(e.V)
		m, r := k.model[v], e.Record()
		name := ""
		if l := tree.Label(r.Label); !l.IsChar() {
			name = names.Name(l)
		}
		if name != m.name || m.name == "" && r.Label != uint16(m.char) || r.HasFirst != k.oracle.HasFirst(v) || r.HasSecond != k.oracle.HasSecond(v) {
			k.t.Fatalf("%s: the index entry at node %d holds %+v (%q), the document %q/%q with children %v, %v",
				k.label("reopened index"), v, r, name, m.name, m.char, k.oracle.HasFirst(v), k.oracle.HasSecond(v))
		}
	}
}

// open stores tr in the case's form and opens a session on it.
func (k *checker) open(tr *arb.Tree) {
	form := formKinds[k.c.form]
	if form == "tree" {
		k.sess = arb.NewSession(tr)
		return
	}
	base := filepath.Join(k.dir, "db")
	db, err := arb.CreateDBFromTree(base, tr)
	if err != nil {
		k.t.Fatal(err)
	}
	db.Close()
	switch form {
	case "lz-4k", "lz-16k":
		bs := 1 << 12
		if form == "lz-16k" {
			bs = 1 << 14
		}
		if _, err := arb.CompressDB(base, bs); err != nil {
			k.t.Fatal(err)
		}
		k.lz = true
		k.sess, err = arb.OpenSession(base)
	case "versioned":
		k.sess, err = arb.OpenVersionedSession(context.Background(), base)
	default:
		k.sess, err = arb.OpenSession(base)
	}
	if err != nil {
		k.t.Fatal(err)
	}
	k.t.Cleanup(func() { k.sess.Close() })
}

// noLeftovers fails when an execution left a state file or a temporary
// file behind.
func (k *checker) noLeftovers() {
	filepath.WalkDir(k.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			k.t.Fatal(err)
		}
		name := d.Name()
		if strings.HasSuffix(name, ".sta") || strings.Contains(name, ".tmp") {
			k.t.Errorf("%s: an execution left %s behind", k.label("files"), path)
		}
		return nil
	})
}

// runModel draws and checks one case.
func runModel(t *testing.T, c *modelCase, cov coverage) {
	knobs := lowered
	if c.production {
		knobs = core.CurrentKnobs()
	}
	defer core.SetKnobs(knobs)()
	rng := rand.New(rand.NewSource(c.seed))
	tr, tags, rstep := document(t, rng, c.doc, c.production)
	if c.production && tr.Len() < 1<<15 {
		t.Fatalf("%v: %d nodes, below the production thresholds", *c, tr.Len())
	}
	k := &checker{t: t, rng: rng, cov: cov, c: c, dir: t.TempDir(), oracle: tr, tags: tags}
	k.open(tr)
	k.items = queries(t, rng, c.query, tags, rstep)
	for _, it := range k.items {
		k.pqs = append(k.pqs, it.prepare(t, k.sess))
	}
	if formKinds[c.form] == "versioned" {
		k.model = modelOf(tr)
		for range 1 + rng.Intn(5) {
			k.patch()
		}
	}
	k.refresh()
	k.scalar()
	k.batch(rng.Intn(3) == 0)
	if !c.production {
		k.cached()
		k.markTo()
	}
	k.sameDocument() // last: a full scan would decode every block up front
	if formKinds[c.form] == "versioned" {
		// One more version: prepared handles recompile when the patch grew
		// the label table, and the cache must not answer from the old one.
		k.sess.SetResultCache(1 << 22)
		for _, pq := range k.pqs {
			if _, _, err := pq.Exec(context.Background(), arb.ExecOpts{ResultCache: true}); err != nil {
				t.Fatal(err)
			}
		}
		k.patch()
		k.sameDocument()
		k.refresh()
		for i, pq := range k.pqs {
			label := k.label("%s after a patch, result cache", k.items[i].src)
			res, _ := k.exec(label, pq, arb.ExecOpts{ResultCache: true})
			k.same(label, pq.Queries(), res, k.want[i])
		}
		// Reopened, the database comes back versioned at the same version.
		v := k.sess.Version()
		if err := k.sess.Close(); err != nil {
			t.Fatal(err)
		}
		k.sameIndex(filepath.Join(k.dir, "db"))
		sess, err := arb.OpenSession(filepath.Join(k.dir, "db"))
		if err != nil {
			t.Fatal(err)
		}
		if k.sess = sess; !sess.Versioned() || sess.Version() != v {
			t.Fatalf("%s: reopened at version %d, want %d", k.label("reopen"), sess.Version(), v)
		}
		for i, it := range k.items {
			label := k.label("%s reopened", it.src)
			pq := it.prepare(t, k.sess)
			res, _ := k.exec(label, pq, arb.ExecOpts{Workers: 4})
			k.same(label, pq.Queries(), res, k.want[i])
		}
		cov["patched"]++
	}
	k.noLeftovers()
}

// runSmall draws and checks one small case: a random tree of at most 60
// nodes — a lone root, a bare chain, and other shapes the table's documents
// of hundreds of nodes never take — in a tree session, with one query set
// of c's kind run alone and in one batch, chunked and pruned down to
// extents of two nodes.
func runSmall(t *testing.T, c *modelCase, cov coverage) {
	defer core.SetKnobs(core.Knobs{ParMinNodes: 1, ParMinTask: 2, PruneMinNodes: 1, PruneMinExtent: 2})()
	rng := rand.New(rand.NewSource(c.seed))
	tr := testutil.RandomTree(rng, 60)
	k := &checker{t: t, rng: rng, cov: cov, c: c, sess: arb.NewSession(tr), oracle: tr, tags: testutil.Tags}
	k.items = queries(t, rng, c.query, testutil.Tags, workload.RTreebank)
	for _, it := range k.items {
		k.pqs = append(k.pqs, it.prepare(t, k.sess))
	}
	k.refresh()
	k.scalar()
	k.batch(false)
	cov["small"]++
}

// smallCases is how many small cases TestModel runs, a third of them per
// query kind.
const smallCases = 240

// TestModel runs the seeded table: the cases walk every document kind,
// storage form and query kind together, their seeds draw the rest, the
// small cases add tiny shapes, and one case runs at the production
// thresholds, on the benchmark's geometry (LZ, 16 KB blocks). Every other
// axis must be reached too.
func TestModel(t *testing.T) {
	cov := coverage{}
	n := len(docKinds) * len(formKinds)
	for i := range n {
		c := &modelCase{seed: int64(i + 1), doc: i % len(docKinds), form: i / len(docKinds), query: i % len(queryKinds)}
		t.Run(fmt.Sprintf("%02d-%s-%s-%s", i, docKinds[c.doc], formKinds[c.form], queryKinds[c.query]), func(t *testing.T) {
			runModel(t, c, cov)
		})
	}
	t.Run("small", func(t *testing.T) {
		for i := range smallCases {
			runSmall(t, &modelCase{seed: int64(1000 + i), query: i % len(queryKinds), small: true}, cov)
		}
	})
	t.Run("production", func(t *testing.T) {
		pruned, one := cov["pruned"], cov["one-scan"]
		runModel(t, &modelCase{seed: 101, doc: 1, form: 3, query: 1, production: true}, cov)
		if cov["pruned"] == pruned || cov["one-scan"] == one {
			t.Fatal("no run pruned or took one scan at the production thresholds")
		}
	})
	if t.Failed() {
		return
	}
	reached := []string{"pruned", "one-scan", "forward", "parallel", "forced-two-scans", "batch", "shared-handle", "mixed-lanes",
		"over-64-predicates", "cache-hit", "cache-subsumed", "marked", "patched", "small", "index-after-replace"}
	for _, form := range formKinds {
		reached = append(reached, "index-"+form)
	}
	for _, w := range reached {
		if cov[w] == 0 {
			t.Errorf("no case reached %q (coverage %v)", w, cov)
		}
	}
}

// FuzzModel runs the generator on fuzzed seeds and axes: one case of the
// table's sizes and one small case.
func FuzzModel(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed, uint8(seed), uint8(seed*7), uint8(seed*3))
	}
	f.Fuzz(func(t *testing.T, seed int64, doc, form, query uint8) {
		c := &modelCase{seed: seed, doc: int(doc) % len(docKinds), form: int(form) % len(formKinds), query: int(query) % len(queryKinds)}
		runModel(t, c, coverage{})
		runSmall(t, &modelCase{seed: seed, query: c.query, small: true}, coverage{})
	})
}
