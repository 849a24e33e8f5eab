// Command arb is the command-line interface to the Arb query engine:
// create .arb databases from XML, evaluate TMNF or Core XPath queries
// over them in two linear scans, and emit results.
//
// Usage:
//
//	arb create <base> [file.xml]       build base.arb/base.lab from XML (stdin default)
//	arb create <base> -compress        same, then rewrite .arb as a block-compressed container
//	arb query  <base> -q <program>     evaluate a TMNF program (Arb syntax)
//	arb query  <base> -xpath <expr>    evaluate a Core XPath query (incl. not(..), on disk)
//	arb query  <base> -f queries.txt -batch   evaluate a whole workload in shared scans
//	arb serve  <base> [-addr :8337]    serve queries over HTTP with plan caching
//	arb patch  <base> -op replace -node N -xml '<frag/>'   mutate a subtree, commit a new version
//	arb compact <base>                 rewrite the live version into one segment
//	arb cat    <base>                  write the database back as XML
//	arb stats  <base>                  print database statistics
//
// Patching: `arb patch` applies one copy-on-write mutation — replace,
// delete or insert-child — to the versioned store (internal/vstore),
// writing only the new subtree bytes and committing by atomic manifest
// rename; the first patch of a plain database creates its .arbm
// manifest and leaves the original .arb untouched. A patched database
// opens versioned everywhere (query, serve, cat, stats): queries read
// MVCC snapshots, and `arb serve` accepts POST /patch while queries in
// flight keep the version they pinned. `arb compact` folds the
// accumulated patch segments back into a single fresh segment.
//
// Query output: by default the number of selected nodes per query
// predicate; -ids prints the selected preorder node ids; -mark re-emits
// the document with selected nodes wrapped in <arb:selected> markup (the
// system's default output mode described in Section 6.3); -v adds the
// engine's statistics on stderr.
//
// Queries run through the library's Session/PreparedQuery API: one
// prepared query per invocation, executed with arb.ExecOpts. -j N
// evaluates with N parallel workers (0 = all CPUs): the database's
// subtree index cuts the .arb file into a frontier of chunk byte ranges
// that workers stream independently, still two linear scans' worth of
// I/O in aggregate. It pays off on large, balanced documents; -mark
// output is inherently sequential and ignores -j. -timeout bounds the
// evaluation: when the deadline passes, the scans abort promptly, all
// temporary files are cleaned up, and the command exits non-zero.
//
// Selectivity-aware pruning is on by default: the scans seek past whole
// subtrees whose label summary (in the .idx sidecar) proves them
// irrelevant to the query, so selective queries read far less than two
// full scans — bit-identical results either way. -noprune forces the
// full scans (useful for benchmarking and for debugging a suspect
// sidecar); -v reports how many bytes pruning skipped, and how many of
// the bytes it read came from the index instead (the records between
// skipped subtrees, which the index holds whole). Marked output
// (-mark) reads everything regardless, since every node is re-emitted.
//
// Batch mode (-f file -batch) reads one query per line — TMNF by
// default, Core XPath with an "xpath:" prefix, blank lines and #
// comments ignored — and evaluates the whole workload through
// Session.PrepareBatch: every query shares one pair of linear scans per
// round instead of paying its own, and the per-query counts print in
// input order. -ids and -mark are per-query output modes and do not
// combine with -batch.
//
// Serve mode (`arb serve <base>`) keeps the session open and fields
// queries over HTTP (POST /query with {"query": "..."}; GET
// /query?q=...; GET /stats; GET /healthz), with an LRU plan cache keyed
// by normalized query text, each miss running as its own execution in
// one of -inflight slots — see internal/server. SIGINT and
// SIGTERM drain the listener gracefully; the same signals interrupt a
// running `arb query`, which then cleans up its temporary files and
// exits non-zero.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arb"
	"arb/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// One interruption contract for every subcommand: the first SIGINT or
	// SIGTERM cancels ctx — running scans abort promptly and remove their
	// temporary state files, the server drains — and a second signal
	// kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// Once the first signal has cancelled ctx, unregister: the second
		// signal then terminates the process the default way instead of
		// being swallowed while a drain or cleanup is still running.
		<-ctx.Done()
		stop()
	}()
	var err error
	switch os.Args[1] {
	case "create":
		err = create(os.Args[2:])
	case "query":
		err = query(ctx, os.Args[2:])
	case "serve":
		err = serve(ctx, os.Args[2:])
	case "patch":
		err = patch(ctx, os.Args[2:])
	case "compact":
		err = compact(ctx, os.Args[2:])
	case "cat":
		err = cat(ctx, os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		// Session errors already name the program; prefix the rest.
		msg := err.Error()
		if !strings.HasPrefix(msg, "arb:") {
			msg = "arb: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  arb create <base> [-compress] [-blocksize N] [file.xml]
  arb query  <base> (-q <program> | -f <program.tmnf> | -xpath <expr>) [-ids|-mark] [-v] [-j N] [-timeout d] [-noprune]
  arb query  <base> -f <queries.txt> -batch [-v] [-j N] [-timeout d] [-noprune]
  arb serve  <base> [-addr :8337] [-inflight N] [-cache N] [-rescache SIZE] [-maxqueue N] [-j N] [-timeout d] [-drain d] [-readtimeout d]
  arb patch  <base> -op (replace|delete|insert-child) -node N [-xml <fragment> | -f fragment.xml]
  arb compact <base>
  arb cat    <base>
  arb stats  <base>
`)
	os.Exit(2)
}

func create(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	compress := fs.Bool("compress", false, "rewrite the finished database as an LZ block-compressed container")
	blockSize := fs.Int("blocksize", 0, "compressed block size in bytes with -compress (0 = default)")
	if len(args) < 1 {
		usage()
	}
	base := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = bufio.NewReaderSize(f, 1<<16)
	}
	db, stats, err := arb.CreateDB(base, r)
	if err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Printf("created %s.arb: %d element nodes, %d character nodes, %d tags, %.2fs\n",
		base, stats.ElemNodes, stats.CharNodes, stats.Tags, stats.Duration.Seconds())
	fmt.Printf(".arb %d bytes, .lab %d bytes\n", stats.ArbBytes, stats.LabBytes)
	if *compress {
		info, err := arb.CompressDB(base, *blockSize)
		if err != nil {
			return err
		}
		fmt.Printf("compressed with %s: %d -> %d bytes (%.2fx, %d blocks of %d)\n",
			arb.CodecName(info.Codec), info.LogicalBytes, info.PhysBytes, info.Ratio(), info.Blocks, info.BlockSize)
	}
	return nil
}

// serve runs the long-lived query server over the database at base,
// draining gracefully when ctx is cancelled (SIGINT/SIGTERM).
func serve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8337", "HTTP listen address")
	inflight := fs.Int("inflight", 2, "max concurrently running executions")
	cacheSize := fs.Int("cache", 256, "plan cache capacity (distinct queries)")
	resCache := fs.String("rescache", "0", "result cache byte budget, e.g. 64m (0 = disabled)")
	maxQueue := fs.Int("maxqueue", 0, "max queries queued for execution before answering 429 (0 = unbounded)")
	jobs := fs.Int("j", 1, "parallel workers per execution (0 = all CPUs, 1 = sequential)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	readTimeout := fs.Duration("readtimeout", 10*time.Second, "deadline for reading each request's headers (guards the listener against stalled clients)")
	if len(args) < 1 {
		usage()
	}
	base := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	workers := *jobs
	if workers == 0 {
		workers = -1
	}
	resBytes, err := parseSize(*resCache)
	if err != nil {
		return fmt.Errorf("-rescache: %w", err)
	}

	sess, err := arb.OpenSession(base)
	if err != nil {
		return err
	}
	defer sess.Close()

	srv := server.New(ctx, sess, server.Config{
		MaxInflight:   *inflight,
		CacheSize:     *cacheSize,
		Workers:       workers,
		Timeout:       *timeout,
		ResCacheBytes: resBytes,
		MaxQueue:      *maxQueue,
	})
	defer srv.Close()

	// Listen before announcing, so "serving ..." means requests are
	// accepted (smoke tests and process supervisors key off the line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler(), *readTimeout)
	fmt.Printf("arb: serving %s on %s (inflight %d, cache %d, rescache %d)\n",
		base, ln.Addr(), *inflight, *cacheSize, resBytes)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight handlers finish their
	// executions, then cancel whatever remains.
	st := srv.Snapshot()
	fmt.Printf("arb: draining (served %d requests, %d executions, cache hit rate %.0f%%)\n",
		st.Requests, st.Profile.Queries, 100*st.HitRate)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		srv.Close() // aborts the stragglers' scans
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("arb: drained")
	return nil
}

// parseSize parses a byte size with an optional k/m/g suffix (powers of
// 1024), e.g. "64m". The empty string and "0" are zero.
func parseSize(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want N, Nk, Nm or Ng)", s)
	}
	return n * mult, nil
}

// newHTTPServer builds the serve-mode HTTP server with connection
// hygiene the zero value lacks: without ReadHeaderTimeout a client that
// opens a socket and never finishes its headers parks a goroutine (and
// under -inflight limits, eventually the whole listener) forever, and
// without IdleTimeout dead keep-alive connections accumulate. The
// header deadline is the -readtimeout flag; idle connections are given
// a generous fixed multiple so keep-alive still helps well-behaved
// clients.
func newHTTPServer(h http.Handler, readTimeout time.Duration) *http.Server {
	if readTimeout <= 0 {
		readTimeout = 10 * time.Second
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readTimeout,
		IdleTimeout:       12 * readTimeout,
	}
}

func query(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	progSrc := fs.String("q", "", "TMNF program (Arb surface syntax)")
	progFile := fs.String("f", "", "file containing a TMNF program")
	xpathSrc := fs.String("xpath", "", "Core XPath query")
	ids := fs.Bool("ids", false, "print selected node ids")
	mark := fs.Bool("mark", false, "emit the document with selected nodes marked up")
	batch := fs.Bool("batch", false, "treat -f as a workload file (one query per line) and run it in shared scans")
	verbose := fs.Bool("v", false, "print engine statistics")
	jobs := fs.Int("j", 1, "parallel workers (0 = all CPUs, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "abort the evaluation after this long (0 = no limit)")
	noprune := fs.Bool("noprune", false, "disable selectivity-aware scan pruning (read every byte even when the index proves subtrees irrelevant)")
	if len(args) < 1 {
		usage()
	}
	base := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sess, err := arb.OpenSession(base)
	if err != nil {
		return err
	}
	defer sess.Close()

	// Workers: the flag speaks CLI (0 = all CPUs), ExecOpts speaks
	// library (negative = all CPUs, 0 = sequential).
	workers := *jobs
	if workers == 0 {
		workers = -1
	}

	if *batch {
		if *progFile == "" {
			return fmt.Errorf("-batch needs a workload file (-f queries.txt)")
		}
		if *progSrc != "" || *xpathSrc != "" {
			return fmt.Errorf("-batch runs the workload file only; put the -q/-xpath query on its own line in %s", *progFile)
		}
		if *ids || *mark {
			return fmt.Errorf("-ids and -mark are per-query output modes; -batch prints counts")
		}
		return runBatch(ctx, sess, *progFile, workers, *noprune, *verbose, *timeout)
	}
	if *ids && *mark {
		return fmt.Errorf("-ids and -mark are exclusive output modes; pick one")
	}

	var pq *arb.PreparedQuery
	var prog *arb.Program
	switch {
	case *progFile != "":
		b, err := os.ReadFile(*progFile)
		if err != nil {
			return err
		}
		if prog, err = arb.ParseProgram(string(b)); err != nil {
			return err
		}
	case *progSrc != "":
		if prog, err = arb.ParseProgram(*progSrc); err != nil {
			return err
		}
	case *xpathSrc != "":
		q, err := arb.ParseXPath(*xpathSrc)
		if err != nil {
			return err
		}
		if pq, err = sess.PrepareXPath(q); err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -q, -f, -xpath is required")
	}
	if pq == nil {
		if pq, err = sess.Prepare(prog); err != nil {
			return err
		}
	}

	opts := arb.ExecOpts{Workers: workers, Stats: *verbose, NoPrune: *noprune}
	var markOut *bufio.Writer
	if *mark {
		// The marked document streams out during the final pass itself
		// (Section 6.3) — still exactly two scans.
		markOut = bufio.NewWriterSize(os.Stdout, 1<<16)
		opts.MarkTo = markOut
	}
	res, prof, err := pq.Exec(ctx, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("query timed out after %v (temporary files cleaned up); raise -timeout or add workers with -j", *timeout)
		case errors.Is(err, context.Canceled):
			return fmt.Errorf("query interrupted (temporary files cleaned up)")
		}
		return err
	}
	if markOut != nil {
		if err := markOut.Flush(); err != nil {
			return err
		}
	}
	if *verbose {
		phase1 := fmt.Sprintf("phase 1 (bottom-up): %v, %d transitions", prof.Engine.Phase1Time, prof.Engine.BUTransitions)
		phase2 := fmt.Sprintf("phase 2 (top-down): %v, %d transitions", prof.Engine.Phase2Time, prof.Engine.TDTransitions)
		phase1, phase2 = omitPhases(prof, phase1, phase2)
		fmt.Fprintf(os.Stderr, "%s; %s; %d passes%s, %d workers, temp %d bytes\n",
			phase1, phase2, prof.Passes, someOneScan(prof), prof.Workers, prof.Disk.StateBytes)
		if skipped := prof.SkippedBytes(); skipped > 0 || prof.Engine.PrunedNodes > 0 {
			fmt.Fprintf(os.Stderr, "pruning: skipped %d data bytes (%d nodes proven irrelevant), %d bytes served from the index; -noprune disables\n",
				skipped, prof.Engine.PrunedNodes, prof.IndexBytes())
		}
	}
	switch {
	case *mark:
		return nil
	case *ids:
		return printIDs(res, pq.Queries()[0])
	default:
		for _, q := range pq.Queries() {
			fmt.Printf("%s: %d nodes selected\n", pq.Program().PredName(q), res.Count(q))
		}
	}
	return nil
}

// runBatch evaluates a workload file as one shared-scan batch: every
// non-empty, non-# line is a query (TMNF by default, Core XPath with an
// "xpath:" prefix), and all of them execute during a single pair of
// linear scans per scheduled round.
func runBatch(ctx context.Context, sess *arb.Session, path string, workers int, noprune, verbose bool, timeout time.Duration) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var items []any
	var srcs []string
	for ln, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if expr, ok := strings.CutPrefix(line, "xpath:"); ok {
			q, err := arb.ParseXPath(strings.TrimSpace(expr))
			if err != nil {
				return fmt.Errorf("%s:%d: %w", path, ln+1, err)
			}
			items = append(items, q)
		} else {
			p, err := arb.ParseProgram(line)
			if err != nil {
				return fmt.Errorf("%s:%d: %w", path, ln+1, err)
			}
			items = append(items, p)
		}
		srcs = append(srcs, line)
	}
	if len(items) == 0 {
		return fmt.Errorf("%s holds no queries", path)
	}
	pb, err := sess.PrepareBatch(items...)
	if err != nil {
		return err
	}
	res, prof, err := pb.Exec(ctx, arb.ExecOpts{Workers: workers, Stats: verbose, NoPrune: noprune})
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("batch timed out after %v (temporary files cleaned up); raise -timeout or add workers with -j", timeout)
		case errors.Is(err, context.Canceled):
			return fmt.Errorf("batch interrupted (temporary files cleaned up)")
		}
		return err
	}
	for i := range res {
		for _, q := range pb.Queries(i) {
			fmt.Printf("%s %s: %d nodes selected\n", srcs[i], pb.Program(i).PredName(q), res[i].Count(q))
		}
	}
	if verbose {
		phase1 := fmt.Sprintf("phase 1: %v", prof.Engine.Phase1Time)
		phase2 := fmt.Sprintf("phase 2: %v", prof.Engine.Phase2Time)
		phase1, phase2 = omitPhases(prof, phase1, phase2)
		fmt.Fprintf(os.Stderr, "%d queries, %d shared round(s)%s; %s, %s; %d workers, temp %d bytes, %d product states; %.0f bytes scanned per query\n",
			len(items), prof.Passes, someOneScan(prof), phase1, phase2,
			prof.Workers, prof.Disk.StateBytes, prof.Engine.ProductStates,
			float64(prof.Disk.Phase1.Bytes+prof.Disk.Phase2.Bytes)/float64(len(items)))
	}
	return nil
}

// omitPhases returns the -v descriptions of the two phases, rewriting the
// one every pass of an execution omitted: phase 2 when the bottom-up pass
// alone decided the selections (one scan), phase 1 when the records
// decided the bottom-up states (one forward scan).
func omitPhases(prof *arb.Profile, phase1, phase2 string) (string, string) {
	if prof.Passes == 0 || prof.Disk.OneScan != prof.Passes {
		return phase1, phase2
	}
	switch {
	case prof.Disk.Phase1.Nodes == 0:
		phase1 = "phase 1: omitted (forward scan)"
	case prof.Disk.Phase2.Nodes == 0:
		phase2 = "phase 2: omitted (one scan)"
	}
	return phase1, phase2
}

// someOneScan notes, for -v, how many passes took one scan when some but
// not all did: each phase ran in some pass, so omitPhases rewrites neither.
func someOneScan(prof *arb.Profile) string {
	if prof.Disk.OneScan == 0 || prof.Disk.OneScan == prof.Passes {
		return ""
	}
	return fmt.Sprintf(", %d of them one scan", prof.Disk.OneScan)
}

// printIDs streams the selected preorder ids to stdout, surfacing write
// errors (a closed pipe must fail the command, not silently truncate).
func printIDs(res *arb.Result, q arb.Pred) error {
	w := bufio.NewWriterSize(os.Stdout, 1<<16)
	var werr error
	res.Walk(q, func(v arb.NodeID) bool {
		if _, err := fmt.Fprintln(w, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return w.Flush()
}

// patch applies one copy-on-write mutation and commits a new version.
// The first patch of a plain database creates its .arbm manifest; the
// original .arb is never rewritten.
func patch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("patch", flag.ExitOnError)
	op := fs.String("op", "", "operation: replace, delete or insert-child")
	node := fs.Int64("node", -1, "target node (preorder id in the current version)")
	xmlSrc := fs.String("xml", "", "fragment XML (replace and insert-child)")
	xmlFile := fs.String("f", "", "file containing the fragment XML")
	if len(args) < 1 {
		usage()
	}
	base := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *node < 0 {
		return fmt.Errorf("-node is required (preorder id, 0 = document root)")
	}
	var frag *arb.Tree
	switch {
	case *xmlSrc != "" && *xmlFile != "":
		return fmt.Errorf("-xml and -f are mutually exclusive")
	case *xmlSrc != "":
		t, err := arb.ParseXML(strings.NewReader(*xmlSrc))
		if err != nil {
			return fmt.Errorf("fragment: %w", err)
		}
		frag = t
	case *xmlFile != "":
		f, err := os.Open(*xmlFile)
		if err != nil {
			return err
		}
		t, perr := arb.ParseXML(bufio.NewReaderSize(f, 1<<16))
		f.Close()
		if perr != nil {
			return fmt.Errorf("fragment: %w", perr)
		}
		frag = t
	}

	sess, err := arb.OpenVersionedSession(ctx, base)
	if err != nil {
		return err
	}
	defer sess.Close()
	info, err := sess.Patch(ctx, arb.PatchOp{Op: *op, Node: *node, Tree: frag})
	if err != nil {
		return err
	}
	fmt.Printf("committed version %d: %s (%d nodes now, delta %+d, %d bytes appended)\n",
		info.Version, info.Op, info.Nodes, info.Delta, info.SegmentBytes)
	return nil
}

// compact rewrites the live version into one fresh segment, letting the
// store delete the accumulated patch segments.
func compact(ctx context.Context, args []string) error {
	if len(args) < 1 {
		usage()
	}
	sess, err := arb.OpenVersionedSession(ctx, args[0])
	if err != nil {
		return err
	}
	defer sess.Close()
	info, err := sess.Compact(ctx)
	if err != nil {
		return err
	}
	ss, _ := sess.StoreStats()
	fmt.Printf("committed version %d: %s (%d segments live, %d bytes)\n",
		info.Version, info.Op, ss.Segments, ss.SegmentBytes)
	return nil
}

func cat(ctx context.Context, args []string) error {
	if len(args) < 1 {
		usage()
	}
	// OpenSession (not OpenDB): a patched database must emit its current
	// version, not the untouched original .arb bytes.
	sess, err := arb.OpenSession(args[0])
	if err != nil {
		return err
	}
	defer sess.Close()
	w := bufio.NewWriterSize(os.Stdout, 1<<16)
	if err := sess.EmitXML(ctx, w, nil); err != nil {
		return err
	}
	return w.Flush()
}

func stats(args []string) error {
	if len(args) < 1 {
		usage()
	}
	sess, err := arb.OpenSession(args[0])
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("%s: %d nodes, %d tags, %d bytes\n",
		args[0], sess.Len(), sess.Names().Len(), sess.Len()*2)
	if ci, ok := sess.Compression(); ok {
		fmt.Printf("compressed: %s codec, %d blocks of %d, %d -> %d bytes on disk (%.2fx)\n",
			arb.CodecName(ci.Codec), ci.Blocks, ci.BlockSize, ci.LogicalBytes, ci.PhysBytes, ci.Ratio())
	}
	if ss, ok := sess.StoreStats(); ok {
		fmt.Printf("versioned: version %d, %d segments (%d bytes), %d history entries\n",
			ss.Version, ss.Segments, ss.SegmentBytes, len(sess.History()))
		hist := sess.History()
		lo := 0
		if len(hist) > 5 {
			lo = len(hist) - 5
		}
		for _, h := range hist[lo:] {
			fmt.Printf("  v%-6d %s\n", h.Version, h.Op)
		}
	}
	return nil
}
