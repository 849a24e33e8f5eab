package workload

import (
	"fmt"
	"math/rand"

	"arb/internal/storage"
	"arb/internal/tree"
)

// GrammarAlphabet is the constituent alphabet of the paper's Treebank
// benchmark queries (Section 6.2): noun phrase, verb phrase, prepositional
// phrase, sentence.
var GrammarAlphabet = []string{"NP", "VP", "PP", "S"}

// TreebankConfig parameterises the Treebank-like generator. The defaults
// (DefaultTreebank) reproduce the structural statistics of the paper's
// Penn Treebank database in Figure 5 at a configurable sentence count:
// 251 distinct tags and roughly 12 character nodes per element node.
type TreebankConfig struct {
	Seed      int64
	Sentences int
}

// DefaultTreebank returns the configuration whose full scale (scale = 1)
// matches the paper's node counts within a few percent.
func DefaultTreebank(scale float64) TreebankConfig {
	return TreebankConfig{Seed: 1, Sentences: int(107000 * scale)}
}

// treebank drives one generation run.
type treebank struct {
	cfg TreebankConfig
	rng *rand.Rand
	h   tree.EventHandler
	pos []string // part-of-speech tags (fillers to reach 251 tags)
	err error
}

// TreebankFeed streams a Treebank-like document: a FILE root, one parsed
// sentence per S child, sentences built from recursive NP/VP/PP/S
// constituents whose leaves are part-of-speech elements containing token
// text (one character node per character, as everywhere in the paper).
func TreebankFeed(cfg TreebankConfig, h tree.EventHandler) error {
	tb := &treebank{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), h: h}
	// 4 grammar tags + FILE + 246 POS tags = 251 tags, as in Figure 5.
	tb.pos = make([]string, 246)
	for i := range tb.pos {
		tb.pos[i] = fmt.Sprintf("T%d", i)
	}
	tb.begin("FILE")
	for i := 0; i < cfg.Sentences && tb.err == nil; i++ {
		tb.sentence()
	}
	tb.end()
	return tb.err
}

func (tb *treebank) begin(name string) {
	if tb.err == nil {
		tb.err = tb.h.Begin(name)
	}
}

func (tb *treebank) end() {
	if tb.err == nil {
		tb.err = tb.h.End()
	}
}

func (tb *treebank) text(b []byte) {
	if tb.err == nil {
		tb.err = tb.h.Text(b)
	}
}

func (tb *treebank) sentence() {
	tb.begin("S")
	tb.constituent(1)
	tb.constituent(1)
	if tb.rng.Intn(2) == 0 {
		tb.constituent(1)
	}
	tb.end()
}

// constituent expands a grammar node: with depth-damped probability it is
// an internal NP/VP/PP/S node with 2-3 children, otherwise a POS leaf
// containing a token. The shape mimics parse trees: shallow (depth <= ~10)
// and moderately branching.
func (tb *treebank) constituent(depth int) {
	if tb.err != nil {
		return
	}
	if depth >= 9 || tb.rng.Intn(10) < 3+depth {
		tb.token()
		return
	}
	tb.begin(GrammarAlphabet[tb.rng.Intn(len(GrammarAlphabet))])
	n := 2 + tb.rng.Intn(2)
	for i := 0; i < n; i++ {
		tb.constituent(depth + 1)
	}
	tb.end()
}

// token emits one part-of-speech leaf with its text. Token text lengths
// are tuned so that the overall character/element node ratio matches the
// paper's Treebank database (about 12:1 — Treebank text includes the
// full token plus annotation characters).
func (tb *treebank) token() {
	tb.begin(tb.pos[tb.rng.Intn(len(tb.pos))])
	n := 14 + tb.rng.Intn(13)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + tb.rng.Intn(26))
	}
	tb.text(b)
	tb.end()
}

// TreebankTree materialises a Treebank-like document in memory.
func TreebankTree(cfg TreebankConfig) (*tree.Tree, error) {
	b := tree.NewBuilder(nil)
	if err := TreebankFeed(cfg, b); err != nil {
		return nil, err
	}
	return b.Tree()
}

// CreateTreebankDB builds a Treebank-like .arb database, its feed's
// events written as records as they arrive (storage.Create).
func CreateTreebankDB(base string, cfg TreebankConfig) (*storage.DB, *storage.CreateStats, error) {
	return storage.Create(base, func(ew *storage.EventWriter) error {
		return TreebankFeed(cfg, ew)
	}, storage.CreateOpts{})
}
