package workload

import (
	"math/rand"

	"arb/internal/storage"
	"arb/internal/tree"
)

// SwissprotConfig parameterises the Swissprot-like generator: protein
// entries with descriptive fields, feature annotations and an amino-acid
// sequence. The full-scale paper database has about 10.9M element nodes,
// 296M character nodes (a 27:1 character ratio — protein records are
// text-heavy) and 48 tags.
type SwissprotConfig struct {
	Seed    int64
	Entries int
}

// DefaultSwissprot returns a configuration whose full scale matches the
// paper's Figure 5 node counts within a few percent.
func DefaultSwissprot(scale float64) SwissprotConfig {
	return SwissprotConfig{Seed: 2, Entries: int(352000 * scale)}
}

// The 48 tags of the Swissprot-like schema (Figure 5 column 3).
var sprotTags = struct {
	root, entry string
	fields      []string // single text field per entry, always present
	refFields   []string // citation block
	featKinds   []string // feature table kinds
}{
	root:  "sprot",
	entry: "entry",
	fields: []string{
		"id", "accession", "created", "modified", "description",
		"geneName", "organism", "lineage", "keyword",
	},
	refFields: []string{
		"reference", "authors", "title", "journal", "volume", "pages",
		"year", "medline",
	},
	featKinds: []string{
		"feature", "ftType", "ftDesc", "ftFrom", "ftTo",
		"domain", "binding", "transmem", "signal", "chain", "conflict",
		"variant", "mutagen", "carbohyd", "disulfid", "metal", "actSite",
		"site", "helix", "strand", "turn", "repeat", "zincFing",
		"nonTer", "propep", "transit",
	},
}

// sequenceTags: "sequence" + amino text; plus "comment" and "db" below.
type sprot struct {
	cfg SwissprotConfig
	rng *rand.Rand
	h   tree.EventHandler
	err error
}

// SwissprotFeed streams a Swissprot-like document.
func SwissprotFeed(cfg SwissprotConfig, h tree.EventHandler) error {
	s := &sprot{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), h: h}
	s.begin(sprotTags.root)
	for i := 0; i < cfg.Entries && s.err == nil; i++ {
		s.entry()
	}
	s.end()
	return s.err
}

func (s *sprot) begin(name string) {
	if s.err == nil {
		s.err = s.h.Begin(name)
	}
}

func (s *sprot) end() {
	if s.err == nil {
		s.err = s.h.End()
	}
}

func (s *sprot) textN(n int, letters string) {
	if s.err != nil {
		return
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[s.rng.Intn(len(letters))]
	}
	s.err = s.h.Text(b)
}

func (s *sprot) field(tag string, textLen int) {
	s.begin(tag)
	s.textN(textLen, "abcdefghijklmnopqrstuvwxyz ")
	s.end()
}

func (s *sprot) entry() {
	s.begin(sprotTags.entry)
	for _, f := range sprotTags.fields {
		s.field(f, 10+s.rng.Intn(20))
	}
	// One citation block.
	s.begin(sprotTags.refFields[0])
	for _, f := range sprotTags.refFields[1:] {
		s.field(f, 8+s.rng.Intn(16))
	}
	s.end()
	// A couple of comments and database cross-references.
	s.field("comment", 40+s.rng.Intn(80))
	s.field("db", 12+s.rng.Intn(8))
	// Feature table: a handful of annotations drawn from the kind pool.
	nf := 3 + s.rng.Intn(5)
	for i := 0; i < nf; i++ {
		s.begin(sprotTags.featKinds[0])
		s.field(sprotTags.featKinds[1+s.rng.Intn(len(sprotTags.featKinds)-1)], 6+s.rng.Intn(10))
		s.end()
	}
	// The protein sequence: the dominant text mass.
	s.begin("sequence")
	s.textN(300+s.rng.Intn(220), "ACDEFGHIKLMNPQRSTVWY")
	s.end()
	s.end()
}

// SwissprotTree materialises a Swissprot-like document in memory.
func SwissprotTree(cfg SwissprotConfig) (*tree.Tree, error) {
	b := tree.NewBuilder(nil)
	if err := SwissprotFeed(cfg, b); err != nil {
		return nil, err
	}
	return b.Tree()
}

// CreateSwissprotDB builds a Swissprot-like .arb database, its feed's
// events written as records as they arrive (storage.Create).
func CreateSwissprotDB(base string, cfg SwissprotConfig) (*storage.DB, *storage.CreateStats, error) {
	return storage.Create(base, func(ew *storage.EventWriter) error {
		return SwissprotFeed(cfg, ew)
	}, storage.CreateOpts{})
}
