package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arb"
	"arb/internal/server"
	"arb/internal/storage"
	"arb/internal/tree"
)

// postQuery sends one /query request and decodes the reply.
func postQuery(t *testing.T, url string, body map[string]any) (map[string]any, int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out, resp.StatusCode
}

func getStats(t *testing.T, url string) server.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// expect is a query's scalar answer: its count and leading ids.
type expect struct {
	count int64
	ids   []int64
}

// scalarAnswers computes each query's answer through a separate session
// over base, sequentially, before the server sees traffic. Queries use
// the workload-file convention (an "xpath:" prefix for Core XPath).
func scalarAnswers(t *testing.T, base string, srcs []string, maxIDs int) map[string]expect {
	t.Helper()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	want := map[string]expect{}
	for _, src := range srcs {
		var pq *arb.PreparedQuery
		if expr, ok := strings.CutPrefix(src, "xpath:"); ok {
			xq, err := arb.ParseXPath(expr)
			if err != nil {
				t.Fatal(err)
			}
			if pq, err = sess.PrepareXPath(xq); err != nil {
				t.Fatal(err)
			}
		} else {
			prog, err := arb.ParseProgram(src)
			if err != nil {
				t.Fatal(err)
			}
			if pq, err = sess.Prepare(prog); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := pq.Exec(context.Background(), arb.ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		q := pq.Queries()[0]
		e := expect{count: res.Count(q)}
		res.Walk(q, func(v arb.NodeID) bool {
			if len(e.ids) >= maxIDs {
				return false
			}
			e.ids = append(e.ids, int64(v))
			return true
		})
		want[src] = e
	}
	return want
}

// burstDiffer sends every request of the burst concurrently and checks
// each reply against the scalar answers.
func burstDiffer(t *testing.T, url string, burst []string, want map[string]expect) {
	t.Helper()
	var wg sync.WaitGroup
	type reply struct {
		src  string
		out  map[string]any
		code int
	}
	replies := make([]reply, len(burst))
	for i, src := range burst {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			out, code := postQuery(t, url, map[string]any{"query": src, "ids": true})
			replies[i] = reply{src, out, code}
		}(i, src)
	}
	wg.Wait()

	for _, r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("request %q: status %d: %v", r.src, r.code, r.out)
		}
		e := want[r.src]
		results := r.out["results"].([]any)
		if len(results) != 1 {
			t.Fatalf("request %q: %d result predicates, want 1", r.src, len(results))
		}
		pr := results[0].(map[string]any)
		if got := int64(pr["count"].(float64)); got != e.count {
			t.Errorf("request %q: count %d, want %d", r.src, got, e.count)
		}
		var ids []int64
		if raw, ok := pr["ids"].([]any); ok {
			for _, v := range raw {
				ids = append(ids, int64(v.(float64)))
			}
		}
		if len(ids) != len(e.ids) {
			t.Errorf("request %q: %d ids, want %d", r.src, len(ids), len(e.ids))
			continue
		}
		for j := range ids {
			if ids[j] != e.ids[j] {
				t.Errorf("request %q: id[%d] = %d, want %d", r.src, j, ids[j], e.ids[j])
				break
			}
		}
	}
}

// scanCoverage is the database bytes the rounds between two /stats
// snapshots read or provably skipped, and the bytes they must cover: a
// round that omitted phase 2 covers the database once, any other round
// twice, once per phase.
func scanCoverage(before, after server.Stats, dbBytes int64) (covered, want int64) {
	covered = (after.Profile.Phase1 + after.Profile.Phase2 + after.Profile.Skipped) -
		(before.Profile.Phase1 + before.Profile.Phase2 + before.Profile.Skipped)
	rounds := after.Profile.ScanRounds - before.Profile.ScanRounds
	oneScan := after.Profile.OneScanRounds - before.Profile.OneScanRounds
	return covered, dbBytes * (2*rounds - oneScan)
}

// TestServeDifferentialConcurrent is the server's acceptance test: N
// concurrent requests (hot and cold, TMNF and XPath, with duplicates)
// against a disk database must return results bit-identical to scalar
// PreparedQuery.Exec, while the merged profile shows that every request
// ran its own Exec: one plan per scan round, N rounds for the burst.
func TestServeDifferentialConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a multi-megabyte database")
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "full")
	// Depth 20: ~2.1M nodes, ~4.2MB — big enough that one scan pair takes
	// long enough for a concurrent burst to queue for the one slot.
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 20, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const maxIDs = 2000
	defer server.SetKnobs(server.Knobs{MaxIDs: maxIDs})()
	srv := server.New(context.Background(), sess, server.Config{MaxInflight: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	distinct := []string{
		`QUERY :- Label[d], HasFirstChild;`,
		`QUERY :- V.Label[b].FirstChild.Label[c];`,
		`QUERY :- Leaf, Label[b];`,
		`QUERY :- V.Label[a].SecondChild.HasFirstChild;`,
		`xpath://c/d`,
		`xpath://a/*`,
		`xpath://b[c]`,
		`xpath:/a/b`,
	}
	// 12 requests: the 8 distinct queries plus two hot duplicates each of
	// a TMNF and an XPath query.
	burst := append(append([]string{}, distinct...), distinct[0], distinct[0], distinct[4], distinct[4])
	want := scalarAnswers(t, base, distinct, maxIDs)

	before := getStats(t, ts.URL)
	burstDiffer(t, ts.URL, burst, want)
	after := getStats(t, ts.URL)

	// Every plan is single-pass, so one Exec per request is one scan round
	// per request: no request shared another's scans or skipped its own.
	rounds := after.Profile.ScanRounds - before.Profile.ScanRounds
	queries := after.Profile.Queries - before.Profile.Queries
	if queries != int64(len(burst)) || rounds != queries {
		t.Errorf("burst of %d requests: %d plans executed in %d scan rounds, want %d in %d",
			len(burst), queries, rounds, len(burst), len(burst))
	}
	// Coverage invariant: every scan round reads or provably skips the
	// whole database once per scan it runs.
	if covered, wantCovered := scanCoverage(before, after, sess.Len()*storage.NodeSize); covered != wantCovered {
		t.Errorf("scan coverage %d bytes over %d rounds (%d one-scan), want %d",
			covered, rounds, after.Profile.OneScanRounds-before.Profile.OneScanRounds, wantCovered)
	}
	// The duplicate requests must have hit the plan cache.
	if hits := after.PlanCache.Hits - before.PlanCache.Hits; hits < 4 {
		t.Errorf("plan cache hits during burst = %d, want >= 4 (duplicates must share plans)", hits)
	}
}

// TestServeOneScanRounds sends a burst made only of queries whose
// bottom-up states decide selection (label selections, some with a
// structural test): every round the server runs for it must omit phase 2, so
// one_scan_rounds equals scan_rounds, the rounds cover the database once
// each and write no state file — and /metrics reports the count.
func TestServeOneScanRounds(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "full")
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 16, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const maxIDs = 500
	defer server.SetKnobs(server.Knobs{MaxIDs: maxIDs})()
	srv := server.New(context.Background(), sess, server.Config{MaxInflight: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	burst := []string{
		`QUERY :- Label[a];`,
		`QUERY :- Label[b];`,
		`QUERY :- Label[c];`,
		`QUERY :- Label[d], HasFirstChild;`,
		`QUERY :- Leaf, Label[b];`,
		`QUERY :- Label[d];`,
	}
	want := scalarAnswers(t, base, burst, maxIDs)
	before := getStats(t, ts.URL)
	burstDiffer(t, ts.URL, burst, want)
	after := getStats(t, ts.URL)

	rounds := after.Profile.ScanRounds - before.Profile.ScanRounds
	oneScan := after.Profile.OneScanRounds - before.Profile.OneScanRounds
	if rounds < 1 || oneScan != rounds {
		t.Errorf("one-scan burst: %d one-scan rounds of %d, want all of them", oneScan, rounds)
	}
	if covered, wantCovered := scanCoverage(before, after, sess.Len()*storage.NodeSize); covered != wantCovered {
		t.Errorf("scan coverage %d bytes over %d one-scan rounds, want %d", covered, rounds, wantCovered)
	}
	if p2, sb := after.Profile.Phase2-before.Profile.Phase2, after.Profile.StateBytes-before.Profile.StateBytes; p2 != 0 || sb != 0 {
		t.Errorf("one-scan burst read %d phase-2 bytes and wrote %d state bytes, want 0 and 0", p2, sb)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("arb_one_scan_rounds_total %d\n", after.Profile.OneScanRounds)
	if !strings.Contains(body.String(), line) {
		t.Errorf("/metrics lacks %q:\n%s", line, body.String())
	}
}

// TestServeHTTPBasics drives the endpoints over a small in-memory
// session: health, stats shape, GET and POST queries, multi-pass XPath,
// normalization folding variants onto one cached plan, and error paths.
func TestServeHTTPBasics(t *testing.T) {
	b := arb.NewTreeBuilder()
	for _, step := range []func() error{
		func() error { return b.Begin("lib") },
		func() error { return b.Begin("book") },
		func() error { return b.Begin("title") },
		func() error { return b.Text([]byte("A")) },
		func() error { return b.End() },
		func() error { return b.End() },
		func() error { return b.Begin("book") },
		func() error { return b.End() },
		func() error { return b.End() },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(context.Background(), arb.NewSession(tr), server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// POST TMNF.
	out, code := postQuery(t, ts.URL, map[string]any{"query": `QUERY :- Label[book];`, "ids": true})
	if code != http.StatusOK {
		t.Fatalf("query status %d: %v", code, out)
	}
	pr := out["results"].([]any)[0].(map[string]any)
	if pr["count"].(float64) != 2 {
		t.Fatalf("book count = %v, want 2", pr["count"])
	}

	// GET XPath with a not(..) condition (multi-pass on the server).
	resp, err = http.Get(ts.URL + "/query?q=" + "xpath%3A%2F%2Fbook%5Bnot%28title%29%5D&ids=1")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("xpath GET status %d: %v", resp.StatusCode, got)
	}
	if c := got["results"].([]any)[0].(map[string]any)["count"].(float64); c != 1 {
		t.Fatalf("titleless book count = %v, want 1", c)
	}

	// Normalization: whitespace/CRLF/axis variants share one plan.
	variants := []string{
		"xpath://book/title",
		"xpath: //book/title\r\n",
		"xpath:/descendant-or-self::node()/child::book/child::title",
	}
	keys := map[string]bool{}
	for _, v := range variants {
		out, code := postQuery(t, ts.URL, map[string]any{"query": v})
		if code != http.StatusOK {
			t.Fatalf("variant %q: status %d: %v", v, code, out)
		}
		keys[out["query"].(string)] = true
	}
	if len(keys) != 1 {
		t.Fatalf("query variants normalized to %d keys %v, want 1", len(keys), keys)
	}
	st := getStats(t, ts.URL)
	if st.PlanCache.Hits < 2 {
		t.Fatalf("plan cache hits = %d, want >= 2 (normalized variants must share a plan)", st.PlanCache.Hits)
	}
	if st.Requests < int64(len(variants))+2 {
		t.Fatalf("requests = %d, want >= %d", st.Requests, len(variants)+2)
	}

	// ids=0 on a GET must disable id output, not enable it.
	resp, err = http.Get(ts.URL + "/query?q=QUERY%20%3A-%20Label%5Bbook%5D%3B&ids=0")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, hasIDs := got["results"].([]any)[0].(map[string]any)["ids"]; hasIDs {
		t.Fatalf("ids=0 still returned ids: %v", got)
	}

	// Error paths: malformed query, empty query, bad method.
	if _, code := postQuery(t, ts.URL, map[string]any{"query": "xpath:book["}); code != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", code)
	}
	if _, code := postQuery(t, ts.URL, map[string]any{"query": "   "}); code != http.StatusBadRequest {
		t.Fatalf("empty query: status %d, want 400", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("DELETE /query: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestServeDrain checks the shutdown contract: after Close the server
// rejects new queries with 503 and reports unhealthy, while the HTTP
// listener's own Shutdown is what drains in-flight handlers.
func TestServeDrain(t *testing.T) {
	b := arb.NewTreeBuilder()
	if err := b.Begin("r"); err != nil {
		t.Fatal(err)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Tree()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(context.Background(), arb.NewSession(tr), server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if out, code := postQuery(t, ts.URL, map[string]any{"query": `QUERY :- Root;`}); code != http.StatusOK {
		t.Fatalf("pre-drain query: status %d: %v", code, out)
	}
	srv.Close()
	if _, code := postQuery(t, ts.URL, map[string]any{"query": `QUERY :- Root;`}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != false {
		t.Fatalf("healthz after drain: %v, want ok=false", h)
	}
}

// TestServeDeadline checks that a request-level deadline surfaces as 504
// without poisoning the server for later requests.
func TestServeDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a multi-megabyte database")
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "full")
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 19, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := server.New(context.Background(), sess, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out, code := postQuery(t, ts.URL, map[string]any{"query": `QUERY :- Label[b], HasFirstChild;`, "timeout_ms": 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("1ms deadline: status %d (%v), want 504", code, out)
	}
	if out, code := postQuery(t, ts.URL, map[string]any{"query": `QUERY :- Label[b], HasFirstChild;`}); code != http.StatusOK {
		t.Fatalf("query after timeout: status %d: %v", code, out)
	}
	// The timed-out execution must not have leaked temporary files.
	deadlineLeakCheck(t, dir)
}

func deadlineLeakCheck(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		switch filepath.Ext(m) {
		case ".arb", ".lab", ".idx":
		default:
			t.Errorf("stray file after timed-out request: %s", m)
		}
	}
}
