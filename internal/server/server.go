// Package server implements `arb serve`: a long-running concurrent query
// server over one arb.Session. It is the serving shape the paper's
// engine was built for — compile once, query many: an LRU plan cache
// keyed by normalized query text keeps the compiled automata of hot
// queries warm across requests, and every miss runs as its own Exec of
// the cached plan in one of a bounded number of execution slots.
// Requests carry their own deadlines through the session's context
// plumbing, and /stats surfaces the merged execution profile (bytes
// scanned and skipped, pruned nodes, cache hit rate).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arb"
	"arb/internal/xpath"
)

// Config sizes a Server to its host. The zero value gets sensible
// defaults. What no host changes is fixed: a reply lists at most maxIDs
// ids per predicate.
type Config struct {
	// MaxInflight bounds concurrently running executions (default 2).
	MaxInflight int
	// CacheSize is the plan cache capacity in distinct queries (default 256).
	CacheSize int
	// Workers is the per-execution parallelism, as arb.ExecOpts.Workers
	// (default 1; negative = all CPUs).
	Workers int
	// Timeout is the default per-request deadline when the request names
	// none (default 30s). A request's timeout_ms field overrides it.
	Timeout time.Duration
	// ResCacheBytes enables the session result cache with the given byte
	// budget (default 0 = disabled). Cached queries answer with zero
	// scans; see internal/rescache.
	ResCacheBytes int64
	// MaxQueue bounds requests waiting for or holding an execution slot
	// (default 0 = unbounded). When the bound is hit, new queries are
	// refused with 429 and a Retry-After header instead of piling onto
	// the queue. Result-cache hits bypass the queue and are never refused.
	MaxQueue int
}

// maxIDs caps the selected-node ids returned per predicate when a request
// asks for ids: a variable, not a constant, only so that the package's
// tests can shrink it (export_test.go).
var maxIDs = 10000

func (c *Config) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
}

// Server fields HTTP query requests against one session.
type Server struct {
	sess  *arb.Session
	cfg   Config
	cache *planCache
	slots chan struct{} // execution slots (MaxInflight)
	opts  arb.ExecOpts  // every execution's options; Stats always set

	base   context.Context
	cancel context.CancelFunc
	closed atomic.Bool

	start     time.Time
	requests  atomic.Int64
	errorsN   atomic.Int64
	inflight  atomic.Int64
	patchesN  atomic.Int64 // committed /patch operations
	queued    atomic.Int64 // admitted queries waiting for or holding a slot
	throttled atomic.Int64 // queries refused with 429 by admission control

	profMu sync.Mutex
	prof   ProfileCounters // guarded by: profMu
}

// ProfileCounters is the merged cost profile across every execution the
// server dispatched — the serving-level view of the engine's ScanStats
// and pruning counters.
type ProfileCounters struct {
	ScanRounds    int64 `json:"scan_rounds"`      // scan rounds executed: two linear scans each, or one when phase 2 was omitted
	OneScanRounds int64 `json:"one_scan_rounds"`  // of ScanRounds, those that took one linear scan each (one scan or forward scan)
	Phase1        int64 `json:"phase1_bytes"`     // .arb bytes read, backward scans
	Phase2        int64 `json:"phase2_bytes"`     // .arb bytes read, forward scans
	Skipped       int64 `json:"skipped_bytes"`    // bytes pruning seeked past
	Pruned        int64 `json:"pruned_nodes"`     // nodes proven irrelevant
	StateBytes    int64 `json:"state_temp_bytes"` // temporary state-file bytes
	Queries       int64 `json:"queries_executed"` // plans executed
}

// New builds a server over the session. Close releases it; the session
// stays the caller's. ctx bounds the server's lifetime: when it is
// cancelled every in-flight and future request fails fast, exactly as if
// Close had been called.
func New(ctx context.Context, sess *arb.Session, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		sess:  sess,
		cfg:   cfg,
		cache: newPlanCache(cfg.CacheSize),
		slots: make(chan struct{}, cfg.MaxInflight),
		opts:  arb.ExecOpts{Workers: cfg.Workers, Stats: true},
		start: time.Now(),
	}
	s.base, s.cancel = context.WithCancel(ctx)
	if cfg.ResCacheBytes > 0 {
		// Executions publish into (and read through) the result cache;
		// the handler additionally short-circuits hits before admission
		// via TryCached.
		sess.SetResultCache(cfg.ResCacheBytes)
		s.opts.ResultCache = true
	}
	return s
}

func (s *Server) addProfile(p *arb.Profile) {
	s.profMu.Lock()
	s.prof.ScanRounds += int64(p.Passes)
	s.prof.OneScanRounds += int64(p.Disk.OneScan)
	s.prof.Phase1 += p.Disk.Phase1.Bytes
	s.prof.Phase2 += p.Disk.Phase2.Bytes
	s.prof.Skipped += p.Disk.Phase1.SkippedBytes + p.Disk.Phase2.SkippedBytes
	s.prof.Pruned += p.Engine.PrunedNodes
	s.prof.StateBytes += p.Disk.StateBytes
	s.prof.Queries++
	s.profMu.Unlock()
}

// Close rejects new requests and cancels outstanding executions. Call it
// after draining the HTTP listener (http.Server.Shutdown waits for
// in-flight handlers, whose executions then finish normally).
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.cancel()
	}
}

// Handler returns the server's HTTP mux:
//
//	POST /query   {"query": "...", "ids": true, "timeout_ms": 500}
//	GET  /query?q=...&ids=1&timeout_ms=500
//	POST /patch   {"op": "replace|delete|insert-child|compact", "node": 7, "xml": "<frag/>"}
//	GET  /stats
//	GET  /metrics
//	GET  /healthz
//
// Queries use the workload-file convention: TMNF programs by default, a
// Core XPath expression behind an "xpath:" prefix. /patch requires a
// versioned session (a database with a .arbm manifest); queries running
// when a patch commits keep reading the version snapshot they pinned.
// /metrics serves the /stats counters in Prometheus text format.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/patch", s.handlePatch)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": !s.closed.Load()})
	})
	return mux
}

// queryRequest is the /query payload.
type queryRequest struct {
	Query     string `json:"query"`
	IDs       bool   `json:"ids"`
	TimeoutMS int64  `json:"timeout_ms"`
}

// predResult is one query predicate's slice of a response.
type predResult struct {
	Predicate string  `json:"predicate"`
	Count     int64   `json:"count"`
	IDs       []int64 `json:"ids,omitempty"`
	Truncated bool    `json:"ids_truncated,omitempty"`
}

// queryResponse is the /query reply.
type queryResponse struct {
	Query       string       `json:"query"` // normalized form (the plan-cache key)
	Results     []predResult `json:"results"`
	PlanCache   string       `json:"plan_cache"`             // "hit" or "miss"
	ResultCache string       `json:"result_cache,omitempty"` // "hit" or "subsumed" when answered without scanning
	Version     uint64       `json:"version,omitempty"`      // database version the execution read (versioned sessions)
	Elapsed     float64      `json:"elapsed_seconds"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.closed.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	var req queryRequest
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		if v := r.URL.Query().Get("ids"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				s.fail(w, http.StatusBadRequest, "bad ids %q", v)
				return
			}
			req.IDs = b
		}
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil {
				s.fail(w, http.StatusBadRequest, "bad timeout_ms %q", ms)
				return
			}
			req.TimeoutMS = v
		}
	default:
		s.fail(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.fail(w, http.StatusBadRequest, "empty query")
		return
	}

	key, pq, hit, err := s.plan(req.Query)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	planCache := map[bool]string{true: "hit", false: "miss"}[hit]

	start := time.Now()
	// Result-cache fast path: a hit answers from memory with zero scans,
	// skipping the deadline plumbing, the admission queue and the
	// execution slots entirely — the whole point of the tier.
	if res, prof, ok := pq.TryCached(); ok {
		writeJSON(w, http.StatusOK, queryResponse{
			Query:       key,
			Results:     s.predResults(pq, res, req.IDs),
			PlanCache:   planCache,
			ResultCache: prof.ResultCache,
			Version:     prof.Version,
			Elapsed:     time.Since(start).Seconds(),
		})
		return
	}

	// Admission control: past the cache, every request costs an
	// execution (or a wait for one). A bounded queue sheds load early
	// with 429 + Retry-After instead of letting deadlines expire while
	// waiting for a slot.
	// Every admitted query counts into the queue depth; only a bounded
	// queue compares it against a limit.
	if depth := s.queued.Add(1); s.cfg.MaxQueue > 0 && depth > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.throttled.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "query queue full (%d waiting); retry later", s.cfg.MaxQueue)
		return
	}
	defer s.queued.Add(-1)

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	// The execution ends at the request's deadline, when the client goes
	// away, or when Close cancels the server, whichever comes first.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	defer context.AfterFunc(s.base, cancel)()

	res, prof, err := s.exec(ctx, pq)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusGatewayTimeout, "query timed out after %v", timeout)
		case errors.Is(err, context.Canceled):
			s.fail(w, http.StatusServiceUnavailable, "query cancelled: %v", err)
		default:
			s.fail(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	writeJSON(w, http.StatusOK, queryResponse{
		Query:     key,
		Results:   s.predResults(pq, res, req.IDs),
		PlanCache: planCache,
		Version:   prof.Version,
		Elapsed:   time.Since(start).Seconds(),
	})
}

// exec runs pq in one of the server's execution slots, waiting for a free
// slot no longer than ctx allows, and merges its profile into /stats.
func (s *Server) exec(ctx context.Context, pq *arb.PreparedQuery) (*arb.Result, *arb.Profile, error) {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	defer func() { <-s.slots }()
	res, prof, err := pq.Exec(ctx, s.opts)
	if err != nil {
		return nil, nil, err
	}
	s.addProfile(prof)
	return res, prof, nil
}

// predResults renders a result per query predicate, truncating id lists
// at maxIDs.
func (s *Server) predResults(pq *arb.PreparedQuery, res *arb.Result, wantIDs bool) []predResult {
	var out []predResult
	for _, q := range pq.Queries() {
		pr := predResult{Predicate: pq.Program().PredName(q), Count: res.Count(q)}
		if wantIDs {
			res.Walk(q, func(v arb.NodeID) bool {
				if len(pr.IDs) >= maxIDs {
					pr.Truncated = true
					return false
				}
				pr.IDs = append(pr.IDs, int64(v))
				return true
			})
		}
		out = append(out, pr)
	}
	return out
}

// plan resolves a query text to its cached plan, compiling and caching
// on a miss. The cache key is the normalized query ("tmnf:" or "xpath:"
// prefixed), so whitespace, CRLF and axis-abbreviation variants of one
// query share a single compiled handle.
func (s *Server) plan(src string) (key string, pq *arb.PreparedQuery, hit bool, err error) {
	trimmed := strings.TrimSpace(src)
	if expr, ok := strings.CutPrefix(trimmed, "xpath:"); ok {
		// One parse serves both the normalized cache key and, on a miss,
		// the compilation (Translate works on the parsed path).
		path, err := xpath.Parse(expr)
		if err != nil {
			return "", nil, false, err
		}
		key = "xpath:" + path.String()
		if pq, ok := s.cache.get(key); ok {
			return key, pq, true, nil
		}
		q, err := xpath.Translate(path)
		if err != nil {
			return "", nil, false, err
		}
		if pq, err = s.sess.PrepareXPath(q); err != nil {
			return "", nil, false, err
		}
	} else {
		prog, err := arb.ParseProgram(trimmed)
		if err != nil {
			return "", nil, false, err
		}
		key = "tmnf:" + prog.String()
		if pq, ok := s.cache.get(key); ok {
			return key, pq, true, nil
		}
		if pq, err = s.sess.Prepare(prog); err != nil {
			return "", nil, false, err
		}
	}
	return key, s.cache.put(key, pq), false, nil
}

// patchRequest is the /patch payload: one mutation of the versioned
// database. "replace" and "insert-child" carry the fragment as XML;
// "delete" takes just the node; "compact" takes neither.
type patchRequest struct {
	Op   string `json:"op"`
	Node int64  `json:"node"`
	XML  string `json:"xml,omitempty"`
}

// patchResponse is the /patch reply: the committed operation's
// PatchInfo, flattened.
type patchResponse struct {
	Version      uint64  `json:"version"` // the version the operation produced
	Op           string  `json:"op"`
	Nodes        int64   `json:"nodes"`
	Delta        int64   `json:"delta"`
	SegmentBytes int64   `json:"segment_bytes"`
	Elapsed      float64 `json:"elapsed_seconds"`
}

// handlePatch applies one mutation to the session's versioned store and
// replies with the version it committed. Queries in flight keep their
// pinned snapshots; queries submitted after the reply see the new
// version. Writers serialise inside the store, so concurrent /patch
// requests simply queue.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.closed.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.sess.Versioned() {
		s.fail(w, http.StatusConflict, "database is not versioned; restart the server on a patched database (arb patch) to enable /patch")
		return
	}
	var req patchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	start := time.Now()
	var info *arb.PatchInfo
	var err error
	if req.Op == "compact" {
		info, err = s.sess.Compact(ctx)
	} else {
		op := arb.PatchOp{Op: req.Op, Node: req.Node}
		if req.XML != "" {
			if op.Tree, err = arb.ParseXML(strings.NewReader(req.XML)); err != nil {
				s.fail(w, http.StatusBadRequest, "bad fragment xml: %v", err)
				return
			}
		}
		info, err = s.sess.Patch(ctx, op)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.fail(w, http.StatusServiceUnavailable, "patch aborted: %v", err)
		default:
			s.fail(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.patchesN.Add(1)
	writeJSON(w, http.StatusOK, patchResponse{
		Version:      info.Version,
		Op:           info.Op,
		Nodes:        info.Nodes,
		Delta:        info.Delta,
		SegmentBytes: info.SegmentBytes,
		Elapsed:      time.Since(start).Seconds(),
	})
}

// Stats is the /stats payload.
type Stats struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      int64           `json:"requests"`
	Errors        int64           `json:"errors"`
	Inflight      int64           `json:"inflight"`
	Patches       int64           `json:"patch_requests"`
	PlanCache     CacheStats      `json:"plan_cache"`
	HitRate       float64         `json:"plan_cache_hit_rate"`
	Profile       ProfileCounters `json:"profile"`
	// ResultCache is the session result cache's counters (present only
	// when the server runs with -rescache).
	ResultCache *arb.ResultCacheStats `json:"result_cache,omitempty"`
	// Queue is the admission-control view: current depth, configured
	// limit (0 = unbounded) and queries refused with 429.
	Queue struct {
		Depth     int64 `json:"depth"`
		Limit     int   `json:"limit"`
		Throttled int64 `json:"throttled"`
	} `json:"queue"`
	Session struct {
		Nodes     int64  `json:"nodes"`
		Disk      bool   `json:"disk"`
		Versioned bool   `json:"versioned"`
		Version   uint64 `json:"version,omitempty"`
	} `json:"session"`
	// Store is the versioned store's bookkeeping (versioned sessions
	// only): segments and bytes held, live versions, snapshot pins, and
	// the patch/compaction counts since the store was opened.
	Store *arb.StoreStats `json:"store,omitempty"`
}

// Snapshot returns the server's current statistics (the /stats payload,
// also used directly by tests and benchmarks).
func (s *Server) Snapshot() Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Errors:        s.errorsN.Load(),
		Inflight:      s.inflight.Load(),
		Patches:       s.patchesN.Load(),
		PlanCache:     s.cache.snapshot(),
	}
	s.profMu.Lock()
	st.Profile = s.prof
	s.profMu.Unlock()
	if total := st.PlanCache.Hits + st.PlanCache.Misses; total > 0 {
		st.HitRate = float64(st.PlanCache.Hits) / float64(total)
	}
	if rc, ok := s.sess.ResultCacheStats(); ok {
		st.ResultCache = &rc
	}
	st.Queue.Depth = s.queued.Load()
	st.Queue.Limit = s.cfg.MaxQueue
	st.Queue.Throttled = s.throttled.Load()
	ss, versioned := s.sess.StoreStats()
	st.Session.Nodes = ss.Nodes
	st.Session.Disk = ss.Segments > 0 // a tree's record image holds no segment
	st.Session.Versioned = versioned
	st.Session.Version = ss.Version
	if versioned {
		st.Store = &ss
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errorsN.Add(1)
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
