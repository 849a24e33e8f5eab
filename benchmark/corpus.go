package main

import (
	"fmt"
	"math"
	"math/rand"

	"arb/internal/storage"
	"arb/internal/tree"
)

// The corpus is a Treebank-shaped document: CORPUS → FILE* → S*, sentences
// built from recursive NP/VP/PP/S constituents whose leaves are
// part-of-speech elements holding one token of text (one character node
// per character). Everything random about it is drawn from the seed.
const (
	posTags   = 246  // part-of-speech tags, as in the paper's Treebank (Figure 5)
	rareTags  = 8    // RARE0..RARE7, planted in a falling share of FILEs
	vocabSize = 4096 // token vocabulary, drawn Zipf so LZ has something to find
)

var grammar = []string{"NP", "VP", "PP", "S"}

// corpusSpec sizes a corpus. The default is what fits the driver's time
// budget (see README); -smoke uses a tiny one. A FILE takes sentences
// until it holds FileNodes nodes (about 52 sentences by default), so
// that FILEs — the unit pruning skips and patches aim at — are the same
// size in every seed, and the cost of a query is the system's and not
// the draw's.
type corpusSpec struct {
	Files     int `json:"files"`      // FILE elements below CORPUS (not counting the header)
	FileNodes int `json:"file_nodes"` // nodes per FILE, reached within one sentence
}

var (
	defaultSpec = corpusSpec{Files: 48, FileNodes: 11200}
	smokeSpec   = corpusSpec{Files: 16, FileNodes: 1300}
)

// sink is what corpus events are fed to: storage.EventWriter when a
// database is created, tree.Builder for the in-memory oracle.
type sink = tree.EventHandler

// corpus is one generated document plus which FILEs hold which rare tag.
type corpus struct {
	seed  int64
	spec  corpusSpec
	vocab [][]byte
	order []string // tag inventory in label-id order (header sentence)
	// rareIn[k][f] reports whether FILE f (0-based, header excluded)
	// contains tag RAREk.
	rareIn [rareTags][]bool
}

// rareShare is the share of FILEs tag RAREk is planted in: an eighth for
// RARE0 and RARE1, a 24th for RARE2..RARE5, a 48th for RARE6 and RARE7.
// Three plateaus rather than eight steps, so that the median and the p90
// of a round-robin over the tags each fall inside a group of queries of
// equal cost and not on the edge between two.
func rareShare(k int) float64 {
	return [rareTags]float64{1. / 8, 1. / 8, 1. / 24, 1. / 24, 1. / 24, 1. / 24, 1. / 48, 1. / 48}[k]
}

// rareFiles returns which of files FILEs hold RAREk: an exact count,
// evenly spaced, shifted by k. The placement does not depend on the
// seed: FILEs are siblings, so what a pruned scan must still read grows
// with the position of the last FILE it needs, and a random placement
// would make the same query cost twice as much in one seed as in another.
func rareFiles(k, files int) []bool {
	n := int(math.Round(rareShare(k) * float64(files)))
	if n < 1 {
		n = 1
	}
	in := make([]bool, files)
	for i := 0; i < n; i++ {
		in[((2*i+1)*files/(2*n)+k)%files] = true
	}
	return in
}

// tagOrder lays out the tag inventory so that every RAREk receives a label
// id whose signature bit no other tag of the corpus shares. The subtree
// index summarises each extent's labels in a 255-bit hashed signature
// (storage.LabelSig); with ~260 tags roughly two in three collide with a
// tag that occurs in every FILE and can then never be pruned. The rare
// tags are the pruning workload's whole point, so the corpus assigns ids
// (by order of first appearance, in a header sentence) instead of leaving
// pruning to hash luck. Label ids start at 256 and follow interning order.
func tagOrder() []string {
	common := []string{"CORPUS", "FILE", "HEADER"}
	common = append(common, grammar...)
	for i := 0; i < posTags; i++ {
		common = append(common, fmt.Sprintf("T%d", i))
	}
	total := len(common) + rareTags
	bit := func(id int) storage.LabelSig {
		var s storage.LabelSig
		s.Add(uint16(256 + id))
		return s
	}
	users := map[storage.LabelSig]int{}
	for id := 0; id < total; id++ {
		users[bit(id)]++
	}
	order := make([]string, total)
	rare := 0
	// CORPUS, FILE and HEADER open the document, so they own ids 0..2.
	for id := 3; id < total && rare < rareTags; id++ {
		if users[bit(id)] == 1 {
			order[id] = fmt.Sprintf("RARE%d", rare)
			rare++
		}
	}
	if rare < rareTags {
		panic("benchmark: fewer than 8 collision-free label signature bits")
	}
	next := 0
	for id := range order {
		if order[id] == "" {
			order[id] = common[next]
			next++
		}
	}
	return order
}

func newCorpus(seed int64, spec corpusSpec) *corpus {
	c := &corpus{seed: seed, spec: spec, order: tagOrder()}
	rng := rand.New(rand.NewSource(seed))
	c.vocab = make([][]byte, vocabSize)
	for i := range c.vocab {
		// Lengths 3..12 by rank, not by chance: Zipf puts a tenth of all
		// tokens on the first word, and a random length there would move
		// the corpus size by a fifth from seed to seed.
		w := make([]byte, 3+i*7%10)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		c.vocab[i] = w
	}
	for k := range c.rareIn {
		c.rareIn[k] = rareFiles(k, spec.Files)
	}
	return c
}

// feed emits the whole document. The first FILE is the header: one
// HEADER element listing every tag once in label-id order.
func (c *corpus) feed(h sink) error {
	// A distinct stream from newCorpus's, so the document does not depend
	// on how many draws the vocabulary took.
	g := &sentenceGen{c: c, rng: rand.New(rand.NewSource(c.seed ^ 0x5eed)), h: h}
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, vocabSize-1)
	g.begin("CORPUS")
	g.begin("FILE")
	g.begin("HEADER")
	for _, name := range c.order[3:] {
		g.begin(name)
		g.end()
	}
	g.end()
	g.end()
	for f := 0; f < c.spec.Files; f++ {
		g.begin("FILE")
		for s, start := 0, g.nodes; g.nodes-start < int64(c.spec.FileNodes); s++ {
			g.rare = g.rare[:0]
			for k := range c.rareIn {
				// Always in the FILE's first sentence, so a planted
				// tag is never absent by chance; now and then later.
				if c.rareIn[k][f] && (s == 0 || g.rng.Intn(8) == 0) {
					g.rare = append(g.rare, fmt.Sprintf("RARE%d", k))
				}
			}
			g.sentence()
		}
		g.end()
	}
	g.end()
	return g.err
}

// sentenceGen draws sentences from one random stream into one sink.
type sentenceGen struct {
	c     *corpus
	rng   *rand.Rand
	zipf  *rand.Zipf
	h     sink
	rare  []string // tags the next sentence must plant, one token each
	nodes int64    // nodes emitted so far
	err   error
}

func (g *sentenceGen) begin(name string) {
	g.nodes++
	if g.err == nil {
		g.err = g.h.Begin(name)
	}
}

func (g *sentenceGen) end() {
	if g.err == nil {
		g.err = g.h.End()
	}
}

func (g *sentenceGen) sentence() {
	g.begin("S")
	g.constituent(1)
	g.constituent(1)
	if g.rng.Intn(2) == 0 {
		g.constituent(1)
	}
	for _, tag := range g.rare {
		g.token(tag)
	}
	g.end()
}

// constituent expands a grammar node: with depth-damped probability an
// inner NP/VP/PP/S node with 2-3 children, otherwise a token. Parse trees
// come out shallow (depth ≤ 10) and moderately branching.
func (g *sentenceGen) constituent(depth int) {
	if depth >= 9 || g.rng.Intn(10) < 2+depth {
		g.token(fmt.Sprintf("T%d", g.rng.Intn(posTags)))
		return
	}
	g.begin(grammar[g.rng.Intn(len(grammar))])
	for i, n := 0, 2+g.rng.Intn(2); i < n; i++ {
		g.constituent(depth + 1)
	}
	g.end()
}

func (g *sentenceGen) token(tag string) {
	g.begin(tag)
	word := g.c.vocab[g.zipf.Uint64()]
	g.nodes += int64(len(word))
	if g.err == nil {
		g.err = g.h.Text(word)
	}
	g.end()
}

// sentenceInto draws one sentence with no rare tags from rng into h — the
// unit patches insert and replace. Patch sequences draw from their own
// rng, so they are a function of the seed alone.
func (c *corpus) sentenceInto(rng *rand.Rand, h sink) error {
	g := &sentenceGen{c: c, rng: rng, h: h}
	g.zipf = rand.NewZipf(rng, 1.1, 1, vocabSize-1)
	g.sentence()
	return g.err
}

// fragment is one sentence as a stand-alone tree, for Session.Patch.
func (c *corpus) fragment(rng *rand.Rand) (*tree.Tree, error) {
	b := tree.NewBuilder(nil)
	if err := c.sentenceInto(rng, b); err != nil {
		return nil, err
	}
	return b.Tree()
}

// tree materialises the document in memory, for the oracle session.
func (c *corpus) tree() (*tree.Tree, error) {
	b := tree.NewBuilder(nil)
	if err := c.feed(b); err != nil {
		return nil, err
	}
	return b.Tree()
}

// create writes the document as a database under base through the paper's
// two-pass creation path, which also persists the subtree index.
func (c *corpus) create(base string) error {
	db, _, err := storage.Create(base, func(ew *storage.EventWriter) error { return c.feed(ew) }, storage.CreateOpts{})
	if err != nil {
		return err
	}
	return db.Close()
}

// fileTable tracks where each data FILE sits in the current version of a
// patched document, so patches can name nodes by preorder id.
type fileTable struct {
	first     int64   // preorder id of the first data FILE
	size      []int64 // nodes per data FILE, the FILE element included
	sentences []int   // S children per data FILE
}

// node returns the preorder id of data FILE f.
func (t *fileTable) node(f int) int64 {
	id := t.first
	for _, n := range t.size[:f] {
		id += n
	}
	return id
}

// Patch kinds, drawn replace 40%, insert 40%, delete 20%.
const (
	replaceFirst = iota // replace the FILE's first sentence
	insertFirst         // insert a new first sentence
	deleteFirst         // delete the first sentence
)

// draw picks the next patch of a sequence: a random FILE and what to do
// to its first sentence. A FILE never loses its last sentence.
func (t *fileTable) draw(rng *rand.Rand) (f, kind int) {
	f = rng.Intn(len(t.size))
	kind = [...]int{replaceFirst, replaceFirst, insertFirst, insertFirst, deleteFirst}[rng.Intn(5)]
	if kind == deleteFirst && t.sentences[f] <= 1 {
		kind = insertFirst
	}
	return f, kind
}

// applied keeps the table in step with a committed patch.
func (t *fileTable) applied(f, kind int, delta int64) {
	t.size[f] += delta
	t.sentences[f] += [...]int{replaceFirst: 0, insertFirst: 1, deleteFirst: -1}[kind]
}

// layoutSink counts nodes per FILE while the document streams through.
type layoutSink struct {
	depth     int
	files     []int64
	sentences []int
}

func (l *layoutSink) Begin(string) error {
	l.depth++
	if l.depth == 2 {
		l.files, l.sentences = append(l.files, 0), append(l.sentences, 0)
	}
	if l.depth == 3 {
		l.sentences[len(l.sentences)-1]++
	}
	if l.depth >= 2 {
		l.files[len(l.files)-1]++
	}
	return nil
}

func (l *layoutSink) Text(s []byte) error {
	l.files[len(l.files)-1] += int64(len(s))
	return nil
}

func (l *layoutSink) End() error {
	l.depth--
	return nil
}

// layout returns the file table of the freshly created document.
func (c *corpus) layout() (*fileTable, error) {
	var l layoutSink
	if err := c.feed(&l); err != nil {
		return nil, err
	}
	return &fileTable{first: 1 + l.files[0], size: l.files[1:], sentences: l.sentences[1:]}, nil
}

// xmlSink renders events as XML text. Tokens are lowercase letters, so
// nothing needs escaping.
type xmlSink struct {
	buf  []byte
	open []string
}

func (x *xmlSink) Begin(name string) error {
	x.buf = append(append(append(x.buf, '<'), name...), '>')
	x.open = append(x.open, name)
	return nil
}

func (x *xmlSink) Text(s []byte) error {
	x.buf = append(x.buf, s...)
	return nil
}

func (x *xmlSink) End() error {
	name := x.open[len(x.open)-1]
	x.open = x.open[:len(x.open)-1]
	x.buf = append(append(append(x.buf, "</"...), name...), '>')
	return nil
}

// fragmentXML is one sentence as XML text, for POST /patch.
func (c *corpus) fragmentXML(rng *rand.Rand) string {
	var x xmlSink
	c.sentenceInto(rng, &x) // xmlSink never fails
	return string(x.buf)
}
