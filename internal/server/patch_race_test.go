package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arb"
	"arb/internal/server"
)

// TestServePatchRace serves concurrent /query clients while one writer
// streams mutations through /patch (including compactions and patches
// that grow the label table). Every response must be consistent with
// exactly one committed version: the document alternates between 1 and 3
// zz-nodes, so any other count means an execution saw a half-applied
// patch. Versions must be non-decreasing per client, and when the dust
// settles no segment or temp file may be leaked.
func TestServePatchRace(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	db, _, err := arb.CreateDB(base, strings.NewReader("<a><zz/><b><c/></b><d/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenVersionedSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv := server.New(context.Background(), sess, server.Config{MaxInflight: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		readers          = 6
		queriesPerClient = 40
		patchPairs       = 30
	)

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: insert two zz nodes under the root, delete them again.
	// Every third insert uses a freshly named wrapper tag, growing the
	// label table so prepared plans must recompile mid-traffic; every
	// tenth pair compacts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		post := func(body map[string]any) (uint64, error) {
			b, err := json.Marshal(body)
			if err != nil {
				return 0, err
			}
			resp, err := http.Post(ts.URL+"/patch", "application/json", bytes.NewReader(b))
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			var out struct {
				Version uint64 `json:"version"`
				Error   string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("patch %v: status %d: %s", body, resp.StatusCode, out.Error)
			}
			return out.Version, nil
		}
		var last uint64
		bump := func(v uint64, err error) error {
			if err != nil {
				return err
			}
			if v <= last {
				return fmt.Errorf("writer saw version %d after %d", v, last)
			}
			last = v
			return nil
		}
		for i := 0; i < patchPairs; i++ {
			frag := "<zz><zz/></zz>"
			if i%3 == 2 {
				frag = fmt.Sprintf("<grown%d><zz/><zz/></grown%d>", i, i)
			}
			if err := bump(post(map[string]any{"op": "insert-child", "node": 0, "xml": frag})); err != nil {
				errs <- err
				return
			}
			if err := bump(post(map[string]any{"op": "delete", "node": 1})); err != nil {
				errs <- err
				return
			}
			if i%10 == 9 {
				if err := bump(post(map[string]any{"op": "compact"})); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := "xpath://zz"
			if c%2 == 1 {
				q = "xpath://b/c" // constant count 1 at every version
			}
			var lastVersion uint64
			for i := 0; i < queriesPerClient; i++ {
				resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(q))
				if err != nil {
					errs <- err
					return
				}
				var out struct {
					Results []struct {
						Count int64 `json:"count"`
					} `json:"results"`
					Version uint64 `json:"version"`
					Error   string `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, out.Error)
					return
				}
				if out.Version == 0 {
					errs <- fmt.Errorf("client %d: response carries no version", c)
					return
				}
				if out.Version < lastVersion {
					errs <- fmt.Errorf("client %d: version went back from %d to %d", c, lastVersion, out.Version)
					return
				}
				lastVersion = out.Version
				count := out.Results[0].Count
				if c%2 == 1 {
					if count != 1 {
						errs <- fmt.Errorf("client %d: //b/c counted %d at version %d", c, count, out.Version)
						return
					}
				} else if count != 1 && count != 3 {
					errs <- fmt.Errorf("client %d: //zz counted %d at version %d — not one version's document",
						c, count, out.Version)
					return
				}
			}
		}(c)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent: the last delete restored the single-zz document.
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("xpath://zz"))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Results []struct {
			Count int64 `json:"count"`
		} `json:"results"`
		Version uint64 `json:"version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Count != 1 || out.Version != sess.Version() {
		t.Fatalf("final state: count %d version %d, want 1 at %d", out.Results[0].Count, out.Version, sess.Version())
	}

	// No leaks: every file in the directory belongs to the database, no
	// commit temp files survive, and on-disk segments do not exceed what
	// the store accounts as live.
	stats, ok := sess.StoreStats()
	if !ok {
		t.Fatal("session lost its store stats")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.Contains(name, ".tmp"):
			t.Fatalf("leaked temp file %s", name)
		case strings.HasSuffix(name, ".seg"):
			segFiles++
		case name == "db.arb" || name == "db.lab" || name == "db.idx" || name == "db.arbm" || name == "db.vlab":
		default:
			t.Fatalf("unexpected file %s left in the database directory", name)
		}
	}
	if segFiles > stats.Segments {
		t.Fatalf("%d .seg files on disk, store accounts %d live segments", segFiles, stats.Segments)
	}
	if stats.Snapshots != 0 {
		t.Fatalf("%d snapshots still pinned after quiescence", stats.Snapshots)
	}
}

// TestServePatchWithoutFragment: a replace or insert-child /patch request
// without its "xml" fragment is a bad request, answered with 400 — not a
// handler panic that drops the connection.
func TestServePatchWithoutFragment(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	db, _, err := arb.CreateDB(base, strings.NewReader("<a><b/><c/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	sess, err := arb.OpenVersionedSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := server.New(context.Background(), sess, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, op := range []string{"replace", "insert-child"} {
		resp, err := http.Post(ts.URL+"/patch", "application/json", strings.NewReader(fmt.Sprintf(`{"op": %q, "node": 1}`, op)))
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s without a fragment: %v, %+v; want status 400", op, err, resp)
		}
		resp.Body.Close()
	}
}
