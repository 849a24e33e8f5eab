package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arb"
	"arb/internal/server"
	"arb/internal/storage"
	"arb/internal/tree"
)

// TestServeResCacheHit drives the result-cache fast path over HTTP: the
// second request for a query must be answered from the cache (the reply
// says so), return the same ids, bump the /stats counters, and show up
// in /metrics — all without the execution profile growing, since a hit
// runs zero scans.
func TestServeResCacheHit(t *testing.T) {
	base := filepath.Join(t.TempDir(), "full")
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 12, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv := server.New(context.Background(), sess, server.Config{ResCacheBytes: 1 << 20})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const q = `QUERY :- Label[b], HasFirstChild;`
	first, code := postQuery(t, ts.URL, map[string]any{"query": q, "ids": true})
	if code != http.StatusOK {
		t.Fatalf("first request: status %d: %v", code, first)
	}
	if rc, _ := first["result_cache"].(string); rc != "" {
		t.Fatalf("first request reports result_cache %q, want none", rc)
	}
	scansBefore := srv.Snapshot().Profile.ScanRounds

	second, code := postQuery(t, ts.URL, map[string]any{"query": q, "ids": true})
	if code != http.StatusOK {
		t.Fatalf("second request: status %d: %v", code, second)
	}
	if rc, _ := second["result_cache"].(string); rc != "hit" {
		t.Fatalf("second request reports result_cache %q, want hit", rc)
	}
	if got, want := fmt.Sprint(second["results"]), fmt.Sprint(first["results"]); got != want {
		t.Fatalf("cached reply differs:\n%s\nvs\n%s", got, want)
	}

	st := srv.Snapshot()
	if st.ResultCache == nil || st.ResultCache.Hits < 1 {
		t.Fatalf("stats result_cache = %+v, want at least one hit", st.ResultCache)
	}
	if st.Profile.ScanRounds != scansBefore {
		t.Fatalf("cache hit grew the scan profile: %d -> %d rounds", scansBefore, st.Profile.ScanRounds)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"arb_result_cache_hits_total", "arb_result_cache_bytes", "arb_queue_depth", "arb_scan_rounds_total"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
}

// TestServeResCacheQueueLimit exercises admission control: with a
// one-slot queue and the one execution slot held, a concurrent burst
// must see exactly one request admitted and the rest refused with 429
// and a Retry-After header, counted in /stats.
func TestServeResCacheQueueLimit(t *testing.T) {
	base := filepath.Join(t.TempDir(), "full")
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 10, "a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv := server.New(context.Background(), sess, server.Config{
		MaxInflight: 1,
		MaxQueue:    1,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The admitted request waits for the held slot, so it stays queued
	// until every other request of the burst has been refused.
	release := server.HoldSlots(srv)
	const burst = 8
	type reply struct {
		code       int
		retryAfter string
	}
	replies := make(chan reply, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			q := url.Values{"q": {fmt.Sprintf("QUERY :- Label[%c];", 'a'+i%4)}}
			resp, err := http.Get(ts.URL + "/query?" + q.Encode())
			if err != nil {
				replies <- reply{}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	// Every reply but the admitted request's arrives while the slot is
	// held; the admitted one only once it is freed.
	var got []reply
	for range burst - 1 {
		got = append(got, <-replies)
	}
	release()
	got = append(got, <-replies)

	ok, throttled := 0, 0
	for i, r := range got {
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
			if r.retryAfter == "" {
				t.Fatal("429 reply lacks a Retry-After header")
			}
		default:
			t.Fatalf("reply %d: unexpected status %d", i, r.code)
		}
	}
	if got[burst-1].code != http.StatusOK {
		t.Fatalf("the reply that waited for the slot has status %d, want 200", got[burst-1].code)
	}
	if ok != 1 || throttled != burst-1 {
		t.Fatalf("burst of %d: %d ok, %d throttled — want 1 admitted and %d refused", burst, ok, throttled, burst-1)
	}
	st := srv.Snapshot()
	if st.Queue.Throttled != int64(throttled) {
		t.Fatalf("stats report %d throttled, burst saw %d", st.Queue.Throttled, throttled)
	}
	if st.Queue.Limit != 1 {
		t.Fatalf("stats report queue limit %d, want 1", st.Queue.Limit)
	}
}

// TestServeQueueDepthUnbounded holds the one execution slot of a server
// whose queue is unbounded (MaxQueue 0): a query admitted meanwhile waits
// for the slot, and /stats and /metrics count it in the queue depth until
// it completes.
func TestServeQueueDepthUnbounded(t *testing.T) {
	base := filepath.Join(t.TempDir(), "full")
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 8, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenSession(base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := server.New(context.Background(), sess, server.Config{MaxInflight: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := server.HoldSlots(srv)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"QUERY :- Label[a];"}}.Encode())
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().Queue.Depth != 1 {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("queue depth %d while a query waits for the held slot, want 1", srv.Snapshot().Queue.Depth)
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		release()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "arb_queue_depth 1\n") {
		release()
		t.Fatalf("/metrics does not report arb_queue_depth 1:\n%s", body)
	}
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("the waiting query finished with status %d, want 200", code)
	}
	// The handler leaves the queue once its reply is written.
	for srv.Snapshot().Queue.Depth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after the query completed, want 0", srv.Snapshot().Queue.Depth)
		}
		time.Sleep(time.Millisecond)
	}
}
