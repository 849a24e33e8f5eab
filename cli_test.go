package arb_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"arb"
	"arb/internal/storage"
	"arb/internal/tree"
)

// buildCLI compiles cmd/arb once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "arb")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/arb")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/arb: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("arb %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	base := filepath.Join(dir, "db")
	if err := os.WriteFile(xmlPath, []byte(libraryXML), 0o644); err != nil {
		t.Fatal(err)
	}

	out := runCLI(t, bin, "create", base, xmlPath)
	if !strings.Contains(out, "8 element nodes, 5 character nodes") {
		t.Fatalf("create output: %s", out)
	}

	out = runCLI(t, bin, "stats", base)
	if !strings.Contains(out, "13 nodes") {
		t.Fatalf("stats output: %s", out)
	}

	out = runCLI(t, bin, "query", base, "-q", "QUERY :- Label[author];")
	if !strings.Contains(out, "3 nodes selected") {
		t.Fatalf("query output: %s", out)
	}

	// -j routes through the parallel disk evaluator (which falls back to
	// the sequential scans on a document this small) with identical
	// results.
	out = runCLI(t, bin, "query", base, "-j", "4", "-q", "QUERY :- Label[author];")
	if !strings.Contains(out, "3 nodes selected") {
		t.Fatalf("parallel query output: %s", out)
	}

	out = runCLI(t, bin, "query", base, "-j", "0", "-xpath", "//book[not(author/following-sibling::author)]/title")
	if !strings.Contains(out, "1 nodes selected") {
		t.Fatalf("parallel negated xpath output: %s", out)
	}

	out = runCLI(t, bin, "query", base, "-xpath", "//book/title")
	if !strings.Contains(out, "2 nodes selected") {
		t.Fatalf("xpath output: %s", out)
	}

	// Negated XPath goes through the in-memory multi-pass path.
	out = runCLI(t, bin, "query", base, "-xpath", "//book[not(author/following-sibling::author)]/title")
	if !strings.Contains(out, "1 nodes selected") {
		t.Fatalf("negated xpath output: %s", out)
	}

	out = runCLI(t, bin, "query", base, "-q", "QUERY :- Label[title];", "-ids")
	ids := strings.Fields(out)
	if len(ids) != 2 {
		t.Fatalf("ids output: %s", out)
	}

	out = runCLI(t, bin, "query", base, "-q", "QUERY :- Label[title];", "-mark")
	if strings.Count(out, `arb:selected="true"`) != 2 {
		t.Fatalf("mark output: %s", out)
	}

	out = runCLI(t, bin, "cat", base)
	if !strings.Contains(out, "<lib><book><title>A</title>") {
		t.Fatalf("cat output: %s", out)
	}

	// Errors are reported, not panicked.
	if _, err := exec.Command(bin, "query", base, "-q", "nonsense").CombinedOutput(); err == nil {
		t.Fatal("bad program accepted")
	}
	if _, err := exec.Command(bin, "query", filepath.Join(dir, "missing"), "-q", "QUERY :- Root;").CombinedOutput(); err == nil {
		t.Fatal("missing database accepted")
	}
	// A Session error already begins with "arb:"; the CLI must not add a
	// second prefix.
	patchOut, err := exec.Command(bin, "patch", base, "-op", "delete", "-node", "1", "-xml", "<x/>").CombinedOutput()
	if err == nil {
		t.Fatal("delete with a fragment accepted")
	}
	if msg := string(patchOut); !strings.HasPrefix(msg, "arb: ") || strings.Contains(msg, "arb: arb:") {
		t.Fatalf("patch error printed as %q, want one \"arb: \" prefix", msg)
	}
}

// TestCLIBatchMode runs a workload file through `query -f file -batch`:
// per-query counts in input order, comments and xpath: lines handled,
// incompatible flags rejected.
func TestCLIBatchMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	dbDir := filepath.Join(dir, "dbdir")
	if err := os.Mkdir(dbDir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dbDir, "db")
	if err := os.WriteFile(xmlPath, []byte(libraryXML), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "create", base, xmlPath)

	workload := filepath.Join(dir, "queries.txt")
	if err := os.WriteFile(workload, []byte(`# the workload
QUERY :- Label[author];
xpath: //book/title
xpath: //book[not(author/following-sibling::author)]/title
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, bin, "query", base, "-f", workload, "-batch")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("batch output has %d lines, want 3:\n%s", len(lines), out)
	}
	for i, want := range []string{"3 nodes selected", "2 nodes selected", "1 nodes selected"} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("batch line %d = %q, want %q", i, lines[i], want)
		}
	}

	// Same workload in parallel mode: identical counts.
	if out2 := runCLI(t, bin, "query", base, "-f", workload, "-batch", "-j", "4"); out2 != out {
		t.Fatalf("parallel batch output differs:\n%s\nvs\n%s", out2, out)
	}

	// -batch needs -f, and refuses per-query output modes.
	if _, err := exec.Command(bin, "query", base, "-batch", "-q", "QUERY :- Root;").CombinedOutput(); err == nil {
		t.Fatal("-batch without -f accepted")
	}
	if _, err := exec.Command(bin, "query", base, "-f", workload, "-batch", "-ids").CombinedOutput(); err == nil {
		t.Fatal("-batch -ids accepted")
	}
	// No stray temp files next to the database.
	assertOnlyDatabaseFiles(t, dbDir)
}

// TestCLIServeSmoke is the `arb serve` smoke test: start the server,
// query it over HTTP (TMNF and XPath, plus /stats), then send SIGTERM
// and require a graceful drain — exit 0, "drained" on stdout, no stray
// files next to the database.
func TestCLIServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	dbDir := filepath.Join(dir, "dbdir")
	if err := os.Mkdir(dbDir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dbDir, "db")
	if err := os.WriteFile(xmlPath, []byte(libraryXML), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "create", base, xmlPath)

	cmd := exec.Command(bin, "serve", base, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The server prints "serving <base> on <addr>" once the listener is
	// accepting; parse the address out of that line.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, " on "); strings.Contains(line, "serving") && i >= 0 {
			addr = strings.Fields(line[i+4:])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("server never announced its address: %v", sc.Err())
	}
	url := "http://" + addr

	resp, err := http.Get(url + "/query?q=" + "QUERY%20%3A-%20Label%5Bauthor%5D%3B")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %v", resp.StatusCode, out)
	}
	if c := out["results"].([]any)[0].(map[string]any)["count"].(float64); c != 3 {
		t.Fatalf("author count over HTTP = %v, want 3", c)
	}
	resp, err = http.Get(url + "/query?q=" + "xpath%3A%2F%2Fbook%2Ftitle")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if c := out["results"].([]any)[0].(map[string]any)["count"].(float64); c != 2 {
		t.Fatalf("title count over HTTP = %v, want 2", c)
	}
	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st["requests"].(float64) < 2 {
		t.Fatalf("stats requests = %v, want >= 2", st["requests"])
	}

	// Drain: SIGTERM must exit 0 after printing the drain lines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail strings.Builder
	for sc.Scan() {
		tail.WriteString(sc.Text())
		tail.WriteString("\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exited non-zero after SIGTERM: %v\n%s", err, tail.String())
	}
	if !strings.Contains(tail.String(), "drained") {
		t.Fatalf("drain output missing: %q", tail.String())
	}
	assertOnlyDatabaseFiles(t, dbDir)
}

// TestCLISignalCancelQuery interrupts a long-running `arb query` with
// SIGINT: the scan must abort promptly with a clear message and a
// non-zero exit, and no temporary state or aux files may remain next to
// the database.
func TestCLISignalCancelQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary and a multi-megabyte database")
	}
	bin := buildCLI(t)
	dbDir := t.TempDir()
	base := filepath.Join(dbDir, "big")
	// ~16M nodes (~33MB): a full unpruned scan pair takes long enough
	// that the signal lands mid-query on any machine.
	names := tree.NewNames()
	db, err := storage.CreateBinary(base, names, storage.FullBinary(names, 23, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	// A multi-pass negated XPath query, forced unpruned: several scans of
	// work, state files in flight when the signal arrives.
	cmd := exec.Command(bin, "query", base, "-noprune",
		"-xpath", "//a[not(b)]")
	var output strings.Builder
	cmd.Stdout = &output
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let it get into the scans
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("query exited zero despite SIGINT\n%s", output.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("query did not exit after SIGINT\n%s", output.String())
	}
	if !strings.Contains(output.String(), "interrupted") {
		t.Fatalf("output does not mention the interruption: %q", output.String())
	}
	assertOnlyDatabaseFiles(t, dbDir)
}

// TestCLITimeoutCancel checks the -timeout flag: an expired deadline
// aborts the query with a clear message and a non-zero exit, and works
// normally when the deadline is generous.
func TestCLITimeoutCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	base := filepath.Join(dir, "db")
	if err := os.WriteFile(xmlPath, []byte(libraryXML), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "create", base, xmlPath)

	// A generous deadline: the query completes normally.
	out := runCLI(t, bin, "query", base, "-timeout", "1m", "-q", "QUERY :- Label[author];")
	if !strings.Contains(out, "3 nodes selected") {
		t.Fatalf("query with timeout output: %s", out)
	}

	// An already-expired deadline: non-zero exit and a clear message,
	// on the plain and the multi-pass XPath paths alike.
	for _, args := range [][]string{
		{"query", base, "-timeout", "1ns", "-q", "QUERY :- Label[author];"},
		{"query", base, "-timeout", "1ns", "-j", "4", "-xpath", "//book[not(author)]"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("arb %s exited zero despite expired deadline\n%s", strings.Join(args, " "), out)
		}
		if !strings.Contains(string(out), "timed out") {
			t.Fatalf("arb %s: message does not mention the timeout: %s", strings.Join(args, " "), out)
		}
	}
	// No stray temporary files next to the database.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".arb", ".lab", ".idx", ".xml":
		default:
			t.Errorf("stray file after timeout: %s", e.Name())
		}
	}
}

// TestCLIUsageFlags holds the usage text to the flag sets: for every
// subcommand, the flags its usage lines name are exactly the flags its -h
// prints (none for a subcommand without a flag set), so neither side can
// advertise a flag the other lacks.
func TestCLIUsageFlags(t *testing.T) {
	bin := buildCLI(t)
	usage, _ := exec.Command(bin).CombinedOutput()
	flagRx := regexp.MustCompile(`(?:^|[\s\[(|])-([a-z]+)\b`)
	named := map[string][]string{}
	for _, line := range strings.Split(string(usage), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "arb" {
			continue
		}
		var flags []string
		for _, m := range flagRx.FindAllStringSubmatch(line, -1) {
			flags = append(flags, m[1])
		}
		named[f[1]] = append(named[f[1]], flags...) // a key even without flags
	}
	if len(named) < 7 {
		t.Fatalf("usage names %d subcommands:\n%s", len(named), usage)
	}
	missing := filepath.Join(t.TempDir(), "missing", "db")
	helpRx := regexp.MustCompile(`(?m)^  -([a-z]+)\b`)
	for sub, flags := range named {
		out, _ := exec.Command(bin, sub, missing, "-h").CombinedOutput()
		var defined []string
		if strings.Contains(string(out), "Usage of "+sub+":") {
			for _, m := range helpRx.FindAllStringSubmatch(string(out), -1) {
				defined = append(defined, m[1])
			}
		}
		slices.Sort(flags)
		slices.Sort(defined)
		if flags, defined = slices.Compact(flags), slices.Compact(defined); !slices.Equal(flags, defined) {
			t.Errorf("arb %s: usage names flags %v, -h prints %v", sub, flags, defined)
		}
	}
}

// TestCLIFailedCreateKeepsDatabase creates a database, then fails to
// create a two-rooted document over it: the failed create must leave the
// database's files byte-identical and answering.
func TestCLIFailedCreateKeepsDatabase(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	good, two := filepath.Join(dir, "good.xml"), filepath.Join(dir, "two.xml")
	if err := os.WriteFile(good, []byte(libraryXML), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(two, []byte("<a/><b/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "create", base, good)
	exts := []string{".arb", ".lab", ".idx"}
	before := map[string][]byte{}
	for _, ext := range exts {
		b, err := os.ReadFile(base + ext)
		if err != nil {
			t.Fatal(err)
		}
		before[ext] = b
	}
	if out, err := exec.Command(bin, "create", base, two).CombinedOutput(); err == nil {
		t.Fatalf("create of a two-rooted document succeeded: %s", out)
	}
	for _, ext := range exts {
		if b, err := os.ReadFile(base + ext); err != nil || string(b) != string(before[ext]) {
			t.Errorf("the failed create changed %s (%v)", ext, err)
		}
	}
	if out := runCLI(t, bin, "query", base, "-xpath", "//book/title"); !strings.Contains(out, "2 nodes selected") {
		t.Fatalf("query after the failed create: %s", out)
	}
}

// TestMissingLabRefused removes a created database's .lab: opening it
// must fail, naming the file, where it used to read every tag as an
// unnamed label and answer queries with nothing.
func TestMissingLabRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte(libraryXML), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, bin, "create", base, xmlPath)
	if err := os.Remove(base + ".lab"); err != nil {
		t.Fatal(err)
	}
	if db, err := storage.Open(base); err == nil {
		db.Close()
		t.Error("storage.Open opened a database without its .lab")
	} else if !strings.Contains(err.Error(), "db.lab") {
		t.Errorf("storage.Open's error %q does not name db.lab", err)
	}
	if s, err := arb.OpenSession(base); err == nil {
		s.Close()
		t.Error("OpenSession opened a database without its .lab")
	}
	for _, args := range [][]string{{"query", base, "-xpath", "//book/title"}, {"cat", base}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("arb %s succeeded without the .lab: %s", args[0], out)
		} else if !strings.Contains(string(out), "db.lab") {
			t.Errorf("arb %s's error %q does not name db.lab", args[0], out)
		}
	}
}

// TestPruneForeignIndexRebuilt copies one database's .arb over another's
// of the same node count, leaving the other's .idx beside it: the index
// describes a document with its one y element elsewhere, and a pruned run
// trusting its label signatures would skip the y the records hold. The
// sidecar's roots do not match the records, so it is rebuilt and
// rewritten: //y answers 1 node with and without -noprune, and the
// sidecar is the one the records' own database has.
func TestPruneForeignIndexRebuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	a := "<a>" + strings.Repeat("x", 1000) + "</a>"
	docs := map[string]string{
		"C": "<r>" + a + "<y/>" + strings.Repeat(a, 39) + "</r>",
		"D": "<r>" + strings.Repeat(a, 40) + "<y/></r>",
	}
	for name, doc := range docs {
		xmlPath := filepath.Join(dir, name+".xml")
		if err := os.WriteFile(xmlPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		runCLI(t, bin, "create", filepath.Join(dir, name), xmlPath)
	}
	c, d := filepath.Join(dir, "C"), filepath.Join(dir, "D")
	arbD, err := os.ReadFile(d + ".arb")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c+".arb", arbD, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-xpath", "//y"}, {"-xpath", "//y", "-noprune"}, {"-xpath", "//y", "-j", "2"}} {
		if out := runCLI(t, bin, append([]string{"query", c}, args...)...); !strings.Contains(out, "1 nodes selected") {
			t.Errorf("query %v over the copied records: %s", args, out)
		}
	}
	idxC, errC := os.ReadFile(c + ".idx")
	idxD, errD := os.ReadFile(d + ".idx")
	if errC != nil || errD != nil || string(idxC) != string(idxD) {
		t.Errorf("the foreign sidecar was not rebuilt from the records (%v, %v)", errC, errD)
	}
}
