package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"arb"
	"arb/internal/workload"
)

// query is one pool entry in the server's workload-file convention: a
// TMNF program, or a Core XPath expression behind an "xpath:" prefix.
type query struct {
	src   string
	class queryClass
	full  bool // an uncached answer takes two full scans: no FILE can be pruned
}

// queryClass says what answering a query costs when no cache holds it.
type queryClass int

const (
	structural queryClass = iota // path query over grammar tags
	rareTag                      // rare tag alone: most FILE extents are seeked past
	superset                     // label-set program whose cached ids answer its subsets
	subset                       // narrower label set, subsumed by a cached superset
)

func (q query) xpath() (string, bool) { return strings.CutPrefix(q.src, "xpath:") }

// prepare compiles q on sess the way the server's plan cache does.
func prepare(sess *arb.Session, q query) (*arb.PreparedQuery, error) {
	if x, ok := q.xpath(); ok {
		xq, err := arb.ParseXPath(x)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.src, err)
		}
		return sess.PrepareXPath(xq)
	}
	p, err := arb.ParseProgram(q.src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.src, err)
	}
	return sess.Prepare(p)
}

// countOn compiles q on sess, runs it and returns how many nodes it
// selects.
func countOn(ctx context.Context, sess *arb.Session, q query) (int64, error) {
	pq, err := prepare(sess, q)
	if err != nil {
		return 0, err
	}
	res, _, err := pq.Exec(ctx, arb.ExecOpts{})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q.src, err)
	}
	return res.Count(pq.Queries()[0]), nil
}

func prepareAll(sess *arb.Session, pool []query) ([]*arb.PreparedQuery, error) {
	pqs := make([]*arb.PreparedQuery, len(pool))
	for i, q := range pool {
		pq, err := prepare(sess, q)
		if err != nil {
			return nil, err
		}
		pqs[i] = pq
	}
	return pqs, nil
}

// regexPool is scan_full's and patch_mix's pool: 20 of the paper's
// regular path programs w1.w2*.w3 over NP/VP/PP/S (Section 6.2), sizes
// 5..15, walking to children. Grammar tags occur in every FILE, so
// nothing can be pruned, and no result cache is attached.
func regexPool(seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	pool := make([]query, 20)
	for i := range pool {
		re := workload.RandomPathRegex(rng, 5+rng.Intn(11), workload.GrammarAlphabet)
		pool[i] = query{src: re.TMNFSource(workload.RTreebank), class: structural, full: true}
	}
	return pool
}

func labelProgram(tags ...string) string {
	var b strings.Builder
	for _, t := range tags {
		fmt.Fprintf(&b, "QUERY :- Label[%s]; ", t)
	}
	return strings.TrimSpace(b.String())
}

func rare(k int) string { return fmt.Sprintf("RARE%d", k) }

// rarePool is scan_pruned_z's pool: each rare tag once as XPath and once
// as a TMNF label program. Members 8..15 (the TMNF half) also form the
// workload's 8-member batch.
func rarePool() []query {
	var pool []query
	for k := 0; k < rareTags; k++ {
		pool = append(pool, query{src: "xpath://" + rare(k), class: rareTag})
	}
	for k := 0; k < rareTags; k++ {
		pool = append(pool, query{src: labelProgram(rare(k)), class: rareTag})
	}
	return pool
}

// servePool is serve_zipf's pool, most popular first (Zipf rank = index).
// Supersets sit at popular ranks so that after an invalidation they are
// usually cached before their subsets are asked for, which then answer by
// subsumption with no scan.
func servePool() []query {
	path := func(x string) query { return query{"xpath:" + x, structural, true} }
	rareX := func(k int) query { return query{"xpath://" + rare(k), rareTag, false} }
	return []query{
		{labelProgram("T0", "T1", "T2", "T3"), superset, true},
		path("//NP/VP"),
		{labelProgram(rare(0), rare(1)), superset, false},
		{labelProgram("T0"), subset, true},
		path("//S/NP/PP"),
		rareX(2),
		{labelProgram(rare(0)), subset, false},
		path("//VP[PP]/NP"),
		{labelProgram("T1", "T2"), subset, true},
		rareX(3),
		path("//PP//NP"),
		{labelProgram(rare(1)), subset, false},
		rareX(4),
		path("//S[VP]/NP"),
		path("//NP[PP]"),
		rareX(5),
		path("//NP/NP/NP"),
		{"xpath://T3", subset, true}, // an XPath subset of a TMNF superset
		rareX(6),
		path("//VP/S/VP"),
		rareX(7),
		path("//PP[NP]/VP"),
		path("//S/S"),
		path("//VP//PP/NP"),
	}
}

// patchEvery is serve_zipf's write share: one request index in a
// thousand is a POST /patch, which bumps the version and so empties the
// result cache of usable entries.
const patchEvery = 1000

// requestGen yields serve_zipf's request sequence: pool indices drawn
// Zipf(1.1), with -1 (a patch) at every patchEvery-th index.
type requestGen struct {
	zipf *rand.Zipf
	i    int
}

func newRequestGen(seed int64, pool int) *requestGen {
	rng := rand.New(rand.NewSource(seed ^ 0x21bf))
	return &requestGen{zipf: rand.NewZipf(rng, 1.1, 1, uint64(pool-1))}
}

func (g *requestGen) next() int {
	g.i++
	if g.i%patchEvery == 0 {
		return -1
	}
	return int(g.zipf.Uint64())
}
