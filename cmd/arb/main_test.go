package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arb"
)

// TestHTTPServerTimeouts is the regression test for the unbounded
// listener: serve mode must never run an http.Server without header and
// idle deadlines, or a client that opens a socket and sends nothing
// holds a connection goroutine forever.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(nil, 3*time.Second)
	if srv.ReadHeaderTimeout != 3*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want the -readtimeout value", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	// A zero or negative flag must still produce a guarded server.
	for _, d := range []time.Duration{0, -time.Second} {
		srv := newHTTPServer(nil, d)
		if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
			t.Fatalf("readtimeout %v: server left unguarded (%v/%v)", d, srv.ReadHeaderTimeout, srv.IdleTimeout)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f (os.Stdout or os.Stderr) redirected into a
// buffer.
func capture(t *testing.T, f **os.File, fn func() error) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	*f = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestQueryVerboseOneScan checks what query -v and -batch -v say about
// the scans: a label selection is decided by the bottom-up pass, so phase 2
// is omitted and no state file written; a regular path's bottom-up states
// are decided by the records, so phase 1 is omitted and no state file
// written; a filter with an upward and a downward condition keeps both
// scans and its temp bytes.
func TestQueryVerboseOneScan(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xml, []byte("<doc><a><b>x</b></a><c><a/></c></doc>"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "db")
	captureStdout(t, func() error { return create([]string{base, xml}) })
	work := filepath.Join(dir, "work.txt")
	if err := os.WriteFile(work, []byte("QUERY :- Label[a];\nxpath://b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	forward := filepath.Join(dir, "forward.txt")
	if err := os.WriteFile(forward, []byte("xpath:/doc/a\nxpath://c/a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The a children of c nodes with an a child.
	const filter = `A :- Label[a]; U :- A; U :- U.invNextSibling; P :- U.invFirstChild; F :- Label[c], P;
		D :- F.FirstChild; D :- D.NextSibling; QUERY :- D, Label[a];`
	ctx := context.Background()
	for _, tc := range []struct {
		args          []string
		want, notWant string
	}{
		{[]string{"-q", "QUERY :- Label[a];"}, "; phase 2: omitted (one scan); 1 passes, 1 workers, temp 0 bytes", "phase 2 (top-down)"},
		{[]string{"-batch", "-f", work}, "phase 2: omitted (one scan); 1 workers, temp 0 bytes", "phase 2: 0"},
		{[]string{"-xpath", "/doc/a"}, "phase 1: omitted (forward scan); phase 2 (top-down)", "phase 1 (bottom-up)"},
		{[]string{"-batch", "-f", forward}, "; phase 1: omitted (forward scan), phase 2: ", "phase 2: omitted"},
		{[]string{"-q", filter}, "phase 2 (top-down)", "omitted"},
	} {
		args := append([]string{base, "-v", "-j", "1"}, tc.args...)
		var stderr string
		captureStdout(t, func() error {
			stderr = capture(t, &os.Stderr, func() error { return query(ctx, args) })
			return nil
		})
		if !strings.Contains(stderr, tc.want) || strings.Contains(stderr, tc.notWant) {
			t.Fatalf("query %q printed\n%s\nwant %q and no %q", args, stderr, tc.want, tc.notWant)
		}
		if tc.notWant == "omitted" && strings.Contains(stderr, "temp 0 bytes") {
			t.Fatalf("query %q printed\n%s\nwant a state file's temp bytes", args, stderr)
		}
		if strings.Contains(tc.want, "forward scan") && !strings.Contains(stderr, "temp 0 bytes") {
			t.Fatalf("query %q printed\n%s\nwant no state file's temp bytes", args, stderr)
		}
	}
}

// TestCreateCompressStatsSmoke drives the CLI path end to end: create
// -compress builds a compressed database, query-by-library selects from
// it, and stats reports the container.
func TestCreateCompressStatsSmoke(t *testing.T) {
	dir := t.TempDir()
	xml := filepath.Join(dir, "doc.xml")
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 4000; i++ {
		sb.WriteString("<item><name>abc</name></item>")
	}
	sb.WriteString("</root>")
	if err := os.WriteFile(xml, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "db")

	out := captureStdout(t, func() error {
		return create([]string{base, "-compress", xml})
	})
	if !strings.Contains(out, "compressed with lz:") {
		t.Fatalf("create -compress output missing compression line:\n%s", out)
	}

	db, err := arb.OpenDB(base)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := db.Compression()
	if !ok || ci.Ratio() <= 1 {
		t.Fatalf("created database not compressed (ok=%v, info %+v)", ok, ci)
	}
	db.Close()

	out = captureStdout(t, func() error { return stats([]string{base}) })
	if !strings.Contains(out, "compressed: lz codec") {
		t.Fatalf("stats output missing compression line:\n%s", out)
	}
}
