// Package server implements `arb serve`: a long-running concurrent query
// server over one arb.Session. It is the serving shape the paper's
// engine was built for — compile once, query many — scaled out along two
// axes: an LRU plan cache keyed by normalized query text keeps the
// compiled automata of hot queries warm across requests, and an adaptive
// coalescer folds concurrent requests into shared-scan batches so M
// simultaneous disk queries cost ~2·⌈M/K⌉ linear scans instead of 2·M.
// Requests carry their own deadlines through the session's context
// plumbing, executions are bounded by a concurrency limiter, and /stats
// surfaces the merged execution profile (bytes scanned and skipped,
// pruned nodes, cache hit rate, batching degree).
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

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// Window is how long a gather group waits for companions before its
	// batch executes. Zero (the default) means auto: the coalescer seeds
	// a 2ms window and retunes it from an EWMA of observed scan
	// durations. A positive value pins the window and disables tuning.
	// Requests on an idle server skip the window entirely; see the
	// coalescer.
	Window time.Duration
	// BatchMax is K, the maximum number of distinct plans per shared-scan
	// batch (default 16). Duplicate concurrent queries never count twice —
	// they share one plan slot and one execution.
	BatchMax int
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
	// MaxIDs caps the selected-node ids returned per predicate when a
	// request asks for ids (default 10000).
	MaxIDs int
	// NoPrune disables selectivity-aware pruning for all executions.
	NoPrune bool
	// ResCacheBytes enables the session result cache with the given byte
	// budget (default 0 = disabled). Cached queries answer with zero
	// scans; see internal/rescache.
	ResCacheBytes int64
	// MaxQueue bounds requests waiting on the coalescer (default 0 =
	// unbounded). When the bound is hit, new queries are refused with
	// 429 and a Retry-After header instead of piling onto the queue.
	// Result-cache hits bypass the queue and are never refused.
	MaxQueue int
}

func (c *Config) fill() {
	if c.Window < 0 {
		c.Window = 0 // auto
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxIDs <= 0 {
		c.MaxIDs = 10000
	}
}

// Server fields HTTP query requests against one session.
type Server struct {
	sess  *arb.Session
	cfg   Config
	cache *planCache
	coal  *coalescer

	base   context.Context
	cancel context.CancelFunc
	closed atomic.Bool

	start     time.Time
	requests  atomic.Int64
	errorsN   atomic.Int64
	inflight  atomic.Int64
	patchesN  atomic.Int64 // committed /patch operations
	queued    atomic.Int64 // queries waiting on (or in) the coalescer
	throttled atomic.Int64 // queries refused with 429 by admission control

	profMu sync.Mutex
	prof   ProfileCounters // guarded by: profMu
}

// ProfileCounters is the merged cost profile across every execution the
// server dispatched — the serving-level view of the engine's ScanStats
// and pruning counters.
type ProfileCounters struct {
	ScanRounds    int64 `json:"scan_rounds"`      // shared scan rounds executed: two linear scans each, or one when phase 2 was omitted
	OneScanRounds int64 `json:"one_scan_rounds"`  // of ScanRounds, those that omitted phase 2: one linear scan each
	Phase1        int64 `json:"phase1_bytes"`     // .arb bytes read, backward scans
	Phase2        int64 `json:"phase2_bytes"`     // .arb bytes read, forward scans
	Skipped       int64 `json:"skipped_bytes"`    // bytes pruning seeked past
	Pruned        int64 `json:"pruned_nodes"`     // nodes proven irrelevant
	StateBytes    int64 `json:"state_temp_bytes"` // temporary state-file bytes
	Queries       int64 `json:"queries_executed"` // plans executed (batch members count singly)
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
		start: time.Now(),
	}
	s.base, s.cancel = context.WithCancel(ctx)
	opts := arb.ExecOpts{Workers: cfg.Workers, NoPrune: cfg.NoPrune}
	if cfg.ResCacheBytes > 0 {
		// Executions publish into (and read through) the result cache;
		// the handler additionally short-circuits hits before the
		// coalescer via TryCached.
		sess.SetResultCache(cfg.ResCacheBytes)
		opts.ResultCache = true
	}
	s.coal = newCoalescer(sess, cfg.Window, cfg.BatchMax, cfg.MaxInflight, opts, s.addProfile)
	return s
}

func (s *Server) addProfile(p *arb.Profile, plans int) {
	if p == nil {
		return
	}
	s.profMu.Lock()
	s.prof.ScanRounds += int64(p.Passes)
	s.prof.OneScanRounds += int64(p.Disk.OneScan)
	s.prof.Phase1 += p.Disk.Phase1.Bytes
	s.prof.Phase2 += p.Disk.Phase2.Bytes
	s.prof.Skipped += p.Disk.Phase1.SkippedBytes + p.Disk.Phase2.SkippedBytes
	s.prof.Pruned += p.Engine.PrunedNodes
	s.prof.StateBytes += p.Disk.StateBytes
	s.prof.Queries += int64(plans)
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
	Coalesced   int          `json:"coalesced"`              // distinct plans sharing this request's scans
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
	// coalescer entirely — the whole point of the tier.
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
	// with 429 + Retry-After instead of letting deadlines expire deep in
	// the coalescer.
	if s.cfg.MaxQueue > 0 {
		if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			s.throttled.Add(1)
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, "query queue full (%d waiting); retry later", s.cfg.MaxQueue)
			return
		}
		defer s.queued.Add(-1)
	}

	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, coalesced, version, err := s.coal.submit(ctx, s.base, key, pq)
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
		Coalesced: coalesced,
		Version:   version,
		Elapsed:   time.Since(start).Seconds(),
	})
}

// predResults renders a result per query predicate, truncating id lists
// at the configured cap.
func (s *Server) predResults(pq *arb.PreparedQuery, res *arb.Result, wantIDs bool) []predResult {
	var out []predResult
	for _, q := range pq.Queries() {
		pr := predResult{Predicate: pq.Program().PredName(q), Count: res.Count(q)}
		if wantIDs {
			res.Walk(q, func(v arb.NodeID) bool {
				if len(pr.IDs) >= s.cfg.MaxIDs {
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
	Coalescer     CoalescerStats  `json:"coalescer"`
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
		Coalescer:     s.coal.snapshot(),
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
	st.Session.Nodes = s.sess.Len()
	st.Session.Disk = s.sess.DB() != nil || s.sess.Versioned()
	st.Session.Versioned = s.sess.Versioned()
	st.Session.Version = s.sess.Version()
	if ss, ok := s.sess.StoreStats(); ok {
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
