package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"arb"
	"arb/internal/server"
)

// connections is serve_zipf's client count: closed loop, one request in
// flight per keep-alive connection, no more than the two cores.
const connections = 2

// serveInst is serve_zipf: internal/server over a versioned session with
// the result cache on, reached through a loopback listener in this
// process.
type serveInst struct {
	sess   *arb.Session
	srv    *server.Server
	http   *httpServer
	cancel context.CancelFunc
	client *http.Client

	pool []query
	want []int64

	patchMu sync.Mutex // one patch at a time: node ids follow the table
	files   *fileTable

	mu      sync.Mutex // guards everything below
	gen     *requestGen
	rng     *rand.Rand
	seen    versionCounts
	out     samples
	scanned int // requests answered by scanning
}

// queryReply and patchReply are the parts of the server's JSON replies
// the benchmark reads.
type queryReply struct {
	Results []struct {
		Count int64 `json:"count"`
	} `json:"results"`
	ResultCache string  `json:"result_cache"`
	Version     uint64  `json:"version"`
	Elapsed     float64 `json:"elapsed_seconds"`
}

type patchReply struct {
	Version uint64  `json:"version"`
	Delta   int64   `json:"delta"`
	Elapsed float64 `json:"elapsed_seconds"`
}

func setupServe(b *bench, dir string) (instance, error) {
	base := filepath.Join(dir, "c")
	err := b.c.create(base)
	if err != nil {
		return nil, err
	}
	s := &serveInst{
		pool: servePool(),
		gen:  newRequestGen(b.cfg.seed, len(servePool())),
		rng:  rand.New(rand.NewSource(b.cfg.seed ^ 0x7a7c)),
		seen: versionCounts{},
	}
	if s.files, err = b.c.layout(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if s.sess, err = arb.OpenVersionedSession(ctx, base); err != nil {
		cancel()
		return nil, err
	}
	s.srv = server.New(ctx, s.sess, server.Config{ResCacheBytes: resCacheBytes, CacheSize: planCacheSize})
	if s.http, err = startHTTP(s.srv.Handler()); err != nil {
		s.srv.Close()
		s.sess.Close()
		cancel()
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}

	// Warm-up: every pool query once compiles its plan, builds its
	// automata and fills the result cache at version 1.
	for i := range s.pool {
		if _, _, err := s.query(b, i, -1, 0); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// httpServer is a handler served on a loopback port of this process.
type httpServer struct {
	url    string
	hs     *http.Server
	served chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop waits for requests in flight and for the serving goroutine.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	return err
}

// post sends one JSON request and reads the whole reply. The time runs
// from before the request is written until the body has been read.
func (s *serveInst) post(path string, body any) ([]byte, time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.http.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, d, err
}

// query sends pool query i and returns its latency and reply.
func (s *serveInst) query(b *bench, i, parent, req int) (float64, *queryReply, error) {
	call := b.tr.begin("server.http", parent, req)
	raw, d, err := s.post("/query", map[string]any{"query": s.pool[i].src})
	b.tr.end(call)
	if err != nil {
		return 0, nil, err
	}
	var r queryReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, nil, err
	}
	if len(r.Results) != 1 {
		return 0, nil, fmt.Errorf("%s: %d result predicates, want 1", s.pool[i].src, len(r.Results))
	}
	b.tr.reported("server.handler", call, time.Duration(r.Elapsed*float64(time.Second)), -1)
	return float64(d) / 1e6, &r, nil
}

func (s *serveInst) gate(b *bench, oracle *arb.Session) {
	ctx := context.Background()
	s.want = make([]int64, len(s.pool))
	for i, q := range s.pool {
		s.want[i] = -1
		n, err := countOn(ctx, oracle, q)
		if err != nil {
			b.check(false, "gate: in memory: %v", err)
			continue
		}
		s.want[i] = n
		_, r, err := s.query(b, i, -1, 0)
		b.check(err == nil && r.Results[0].Count == n && r.Version == 1, "gate: %s over HTTP: %v %+v, want count %d at version 1", q.src, err, r, n)
	}
}

// nextRequest hands a connection its next request index, or false once
// the run has lasted d and reached its counts.
func (s *serveInst) nextRequest(start time.Time, d time.Duration, minQuery, minHeavy int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(start) >= d && len(s.out.query) >= minQuery && len(s.out.heavy) >= minHeavy {
		return 0, false
	}
	return s.gen.next(), true
}

func (s *serveInst) run(b *bench, d time.Duration, minQuery, minHeavy int) samples {
	s.out = samples{layer: map[string]float64{}}
	s.scanned = 0
	before := s.srv.Snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := s.nextRequest(start, d, minQuery, minHeavy)
				if !ok {
					return
				}
				req := b.nextReq()
				root := b.tr.begin("bench.request", -1, req)
				if i < 0 {
					s.patch(b, root, req)
				} else {
					s.request(b, i, root, req)
				}
				b.tr.end(root)
			}
		}()
	}
	wg.Wait()
	s.out.wall = time.Since(start)
	s.out.answers = len(s.out.query)
	after := s.srv.Snapshot()

	n := float64(len(s.out.query))
	missShare := float64(s.scanned) / n
	var hits, subsumed, misses, evictions uint64
	if after.ResultCache != nil && before.ResultCache != nil {
		hits = after.ResultCache.Hits - before.ResultCache.Hits
		subsumed = after.ResultCache.Subsumed - before.ResultCache.Subsumed
		misses = after.ResultCache.Misses - before.ResultCache.Misses
		evictions = after.ResultCache.Evictions - before.ResultCache.Evictions
	}
	if b.windows() {
		// p90 must sit inside the hit mode and the tail inside the miss
		// mode, never on the boundary between them.
		b.check(missShare >= 0.015 && missShare <= 0.035, "scanning-miss share %.4f outside [0.015, 0.035]", missShare)
		b.check(subsumed > 0, "no request was answered by subsumption")
	}
	lookups := float64(hits + subsumed + misses)
	if lookups == 0 {
		lookups = 1
	}
	l := s.out.layer
	l["rescache.hit_share"] = float64(hits) / lookups
	l["rescache.subsumed_share"] = float64(subsumed) / lookups
	l["rescache.miss_share"] = float64(misses) / lookups
	l["rescache.evictions"] = float64(evictions)
	l["server.scanning_miss_share"] = missShare
	pairs := float64(after.Profile.ScanRounds - before.Profile.ScanRounds)
	l["server.scan_pairs"] = pairs
	if pairs > 0 {
		l["server.plans_per_scan_pair"] = float64(after.Profile.Queries-before.Profile.Queries) / pairs
	}
	if pl := float64(after.PlanCache.Hits + after.PlanCache.Misses - before.PlanCache.Hits - before.PlanCache.Misses); pl > 0 {
		l["server.plan_cache_hit_share"] = float64(after.PlanCache.Hits-before.PlanCache.Hits) / pl
	}
	l["server.throttled"] = float64(after.Queue.Throttled - before.Queue.Throttled)
	scanBytes := after.Profile.Phase1 + after.Profile.Phase2 - before.Profile.Phase1 - before.Profile.Phase2
	b.read += scanBytes
	b.skipped += after.Profile.Skipped - before.Profile.Skipped
	// The median request's scan bytes: 0 for a cache answer, else an even
	// share of what the server's scans read.
	if s.scanned > 0 && float64(s.scanned) > n/2 {
		l["server.p50_request_scan_bytes"] = float64(scanBytes) / float64(s.scanned)
	}
	if supports(len(s.out.query), 0.99) {
		l["server.query_p99_ms"] = quantile(s.out.query, 0.99)
	}
	return s.out
}

// request sends one query and files its latency: every request counts
// as a primary sample, full-scan misses also as heavy ones.
func (s *serveInst) request(b *bench, i, root, req int) {
	ms, r, err := s.query(b, i, root, req)
	if err != nil {
		b.check(false, "%s: %v", s.pool[i].src, err)
		return
	}
	count := r.Results[0].Count
	s.mu.Lock()
	want := s.seen.expect(i, r.Version, count, s.want[i])
	s.out.query = append(s.out.query, ms)
	if r.ResultCache == "" {
		s.scanned++
		if s.pool[i].full {
			s.out.heavy = append(s.out.heavy, ms)
		}
	}
	s.mu.Unlock()
	b.check(count == want, "%s at version %d: count %d, want %d", s.pool[i].src, r.Version, count, want)
}

// patch inserts one fresh sentence as first child of a random FILE.
func (s *serveInst) patch(b *bench, root, req int) {
	s.patchMu.Lock()
	defer s.patchMu.Unlock()
	s.mu.Lock()
	f := s.rng.Intn(len(s.files.size))
	xml := b.c.fragmentXML(s.rng)
	s.mu.Unlock()
	call := b.tr.begin("server.http", root, req)
	raw, _, err := s.post("/patch", map[string]any{"op": "insert-child", "node": s.files.node(f), "xml": xml})
	b.tr.end(call)
	var r patchReply
	if err == nil {
		err = json.Unmarshal(raw, &r)
	}
	if err != nil {
		b.check(false, "patch: %v", err)
		return
	}
	b.tr.reported("server.handler", call, time.Duration(r.Elapsed*float64(time.Second)), -1)
	s.files.size[f] += r.Delta
	s.files.sentences[f]++
	b.check(r.Delta > 0, "patch: delta %d", r.Delta)
}

// verify checks every pool query at the final version against an
// in-memory session parsed from the session's own XML.
func (s *serveInst) verify(b *bench) {
	oracle, err := emitOracle(s.sess)
	if err != nil {
		b.check(false, "verify: %v", err)
		return
	}
	ctx := context.Background()
	final := s.sess.Version()
	for i, q := range s.pool {
		n, err := countOn(ctx, oracle, q)
		if err != nil {
			b.check(false, "verify: in memory: %v", err)
			continue
		}
		_, r, err := s.query(b, i, -1, 0)
		b.check(err == nil && r.Results[0].Count == n && r.Version == final, "verify: %s: %v %+v, want count %d at version %d", q.src, err, r, n, final)
	}
}

// emitOracle parses the session's current document from its own XML
// into a fresh in-memory session.
func emitOracle(sess *arb.Session) (*arb.Session, error) {
	var buf bytes.Buffer
	if err := sess.EmitXML(context.Background(), &buf, nil); err != nil {
		return nil, err
	}
	t, err := arb.ParseXML(&buf)
	if err != nil {
		return nil, err
	}
	return arb.NewSession(t), nil
}

func (s *serveInst) nodes() int64 { return s.sess.Len() }

func (s *serveInst) close() error {
	err := s.http.stop()
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.cancel()
	if cerr := s.sess.Close(); err == nil {
		err = cerr
	}
	return err
}
