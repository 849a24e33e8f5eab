package server

import (
	"fmt"
	"net/http"
	"strings"
)

// /metrics serves the server's counters in the Prometheus text
// exposition format (text/plain; version=0.0.4) — the same numbers
// /stats reports as JSON, named and typed for a scraper, plus the
// versioned store's patch/version gauges when the session is versioned.
// The endpoint is handwritten on purpose: the format is a few lines of
// fmt, and the server carries no metrics dependency.

// metricsWriter accumulates one exposition: each metric is a HELP line,
// a TYPE line, and the sample.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) counter(name, help string, v int64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := s.Snapshot()
	var m metricsWriter

	m.gauge("arb_uptime_seconds", "Seconds since the server started.", st.UptimeSeconds)
	m.counter("arb_requests_total", "HTTP requests received (queries and patches).", st.Requests)
	m.counter("arb_errors_total", "Requests answered with an error status.", st.Errors)
	m.gauge("arb_inflight_requests", "Requests currently being handled.", float64(st.Inflight))
	m.counter("arb_patch_requests_total", "Mutations committed through /patch.", st.Patches)

	m.counter("arb_plan_cache_hits_total", "Plan cache hits.", st.PlanCache.Hits)
	m.counter("arb_plan_cache_misses_total", "Plan cache misses (compilations).", st.PlanCache.Misses)
	m.counter("arb_plan_cache_evictions_total", "Plans evicted from the LRU cache.", st.PlanCache.Evictions)
	m.gauge("arb_plan_cache_size", "Distinct plans currently cached.", float64(st.PlanCache.Size))
	m.gauge("arb_plan_cache_capacity", "Plan cache capacity.", float64(st.PlanCache.Capacity))

	if rc := st.ResultCache; rc != nil {
		m.counter("arb_result_cache_hits_total", "Result cache exact (key, version) hits.", int64(rc.Hits))
		m.counter("arb_result_cache_subsumed_total", "Result cache misses answered via subsumption.", int64(rc.Subsumed))
		m.counter("arb_result_cache_misses_total", "Result cache lookups answered by neither.", int64(rc.Misses))
		m.counter("arb_result_cache_evictions_total", "Result cache entries dropped for the byte budget.", int64(rc.Evictions))
		m.counter("arb_result_cache_rejected_total", "Result publishes refused by admission.", int64(rc.Rejected))
		m.gauge("arb_result_cache_entries", "Resident result cache entries.", float64(rc.Entries))
		m.gauge("arb_result_cache_bytes", "Resident result cache bytes.", float64(rc.Bytes))
		m.gauge("arb_result_cache_capacity_bytes", "Configured result cache byte budget.", float64(rc.Capacity))
	}

	m.gauge("arb_queue_depth", "Admitted queries waiting for or holding an execution slot.", float64(st.Queue.Depth))
	m.gauge("arb_queue_limit", "Admission-control queue bound (0 = unbounded).", float64(st.Queue.Limit))
	m.counter("arb_throttled_total", "Queries refused with 429 by admission control.", st.Queue.Throttled)

	m.counter("arb_scan_rounds_total", "Scan rounds executed (one or two linear scans each).", st.Profile.ScanRounds)
	m.counter("arb_one_scan_rounds_total", "Scan rounds that took one linear scan each: phase 2 omitted (one scan) or phase 1 omitted (forward scan).", st.Profile.OneScanRounds)
	m.counter("arb_phase1_bytes_total", "Database bytes read by backward scans.", st.Profile.Phase1)
	m.counter("arb_phase2_bytes_total", "Database bytes read by forward scans.", st.Profile.Phase2)
	m.counter("arb_skipped_bytes_total", "Database bytes pruning seeked past.", st.Profile.Skipped)
	m.counter("arb_pruned_nodes_total", "Nodes proven irrelevant by pruning.", st.Profile.Pruned)
	m.counter("arb_state_temp_bytes_total", "Temporary state-file bytes written.", st.Profile.StateBytes)
	m.counter("arb_queries_executed_total", "Plans executed.", st.Profile.Queries)

	m.gauge("arb_session_nodes", "Nodes in the session's document (current version).", float64(st.Session.Nodes))
	if st.Store != nil {
		m.gauge("arb_store_version", "Current database version id.", float64(st.Store.Version))
		m.gauge("arb_store_segments", "Open segments (base plus live patch segments).", float64(st.Store.Segments))
		m.gauge("arb_store_segment_bytes", "Record bytes held by open segments.", float64(st.Store.SegmentBytes))
		m.gauge("arb_store_live_versions", "Versions not yet collected (current included).", float64(st.Store.LiveVersions))
		m.gauge("arb_store_snapshots", "Outstanding snapshot pins (nonzero at quiescence means a leak).", float64(st.Store.Snapshots))
		m.counter("arb_store_patches_total", "Patches committed since the store was opened.", st.Store.Patches)
		m.counter("arb_store_compactions_total", "Compactions committed since the store was opened.", st.Store.Compactions)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(m.b.String()))
}
