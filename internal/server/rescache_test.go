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
	"sync"
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
	for _, name := range []string{"arb_result_cache_hits_total", "arb_result_cache_bytes", "arb_queue_depth", "arb_coalescer_window_seconds"} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics lacks %s", name)
		}
	}
}

// TestServeResCacheQueueLimit exercises admission control: with a
// one-slot queue and a long pinned gather window, a concurrent burst
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
		Window:      time.Second, // pinned: the admitted request parks in its gather group
		MaxInflight: 1,
		MaxQueue:    1,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the coalescer's idle clock so the burst cannot take the solo
	// fast path and drain the queue early.
	if _, code := postQuery(t, ts.URL, map[string]any{"query": `QUERY :- Root;`}); code != http.StatusOK {
		t.Fatalf("warm-up failed with status %d", code)
	}

	const burst = 8
	codes := make([]int, burst)
	retryAfter := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := url.Values{"q": {fmt.Sprintf("QUERY :- Label[%c];", 'a'+i%4)}}
			resp, err := http.Get(ts.URL + "/query?" + q.Encode())
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, throttled := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
			if retryAfter[i] == "" {
				t.Fatal("429 reply lacks a Retry-After header")
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, code)
		}
	}
	if ok < 1 || throttled < 1 {
		t.Fatalf("burst of %d: %d ok, %d throttled — want both admission and refusal", burst, ok, throttled)
	}
	st := srv.Snapshot()
	if st.Queue.Throttled != int64(throttled) {
		t.Fatalf("stats report %d throttled, burst saw %d", st.Queue.Throttled, throttled)
	}
	if st.Queue.Limit != 1 {
		t.Fatalf("stats report queue limit %d, want 1", st.Queue.Limit)
	}
}
