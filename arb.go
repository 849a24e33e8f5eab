// Package arb is a Go implementation of the Arb system from Christoph
// Koch's VLDB 2003 paper "Efficient Processing of Expressive
// Node-Selecting Queries on XML Data in Secondary Storage: A Tree
// Automata-based Approach".
//
// Arb evaluates node-selecting queries on XML trees with expressive power
// equal to the unary MSO queries — all queries answerable with bounded
// memory — in two linear passes over the data, with main memory
// independent of the data size (apart from a stack bounded by the
// document depth). Queries are written in TMNF (a four-template monadic
// datalog, extended with caterpillar path expressions) or in Core XPath,
// and are compiled into a pair of deterministic tree automata whose
// states are residual propositional Horn programs, computed lazily.
//
// # Quick start
//
// The repository is the single Go module "arb"; import the root package
// as `import "arb"` (the command-line tools live under cmd/arb and
// cmd/arbgen, runnable with `go run arb/cmd/arb`). Speed numbers come from
// one place, the seeded benchmark under benchmark/ (`bash
// benchmark/run.sh`).
//
// Querying is session-oriented, matching the engine's compile-once,
// query-many design: a Session reads one store of database versions and
// owns what its queries share — the label-name table and the subtree
// index; a PreparedQuery holds a compiled program whose lazily built
// automata persist across executions, so a warm query evaluates with two
// table lookups per node. Every execution pins one version: a tree
// (NewSession), an open database (NewDBSession) or a plain database on
// disk (OpenSession) is read-only at version 1, and a patched database or
// one opened with OpenVersionedSession takes Patch and Compact.
//
//	sess, err := arb.OpenSession("mydb")              // mydb.arb + mydb.lab (+ mydb.idx)
//	defer sess.Close()
//	prog, err := arb.ParseProgram(
//		`QUERY :- V.Label[gene].FirstChild.NextSibling*.Label[sequence];`)
//	pq, err := sess.Prepare(prog)
//	res, _, err := pq.Exec(ctx, arb.ExecOpts{})       // two linear scans
//	n := res.Count(pq.Queries()[0])
//
// One Exec call drives every execution strategy through one driver: an
// in-memory session runs it over its tree's record image (the records a
// database holds, kept in RAM with the run's temporaries), ExecOpts.Workers
// picks sequential or parallel, and Core XPath queries with not(..)
// conditions (sess.PrepareXPath) transparently run their auxiliary passes
// first, each pass's selection an aux predicate of the later ones. Every
// path returns the same unified Result with identical selected nodes, and
// the ctx cancels long scans promptly, cleaning up temporary files.
// In-memory sources enter through NewSession(tree); ParseXML and
// TreeBuilder construct trees. The subpackages under internal implement
// the pieces (storage model, Horn solver, automata, frontends,
// workloads); this package is the supported public surface.
//
// # Parallel evaluation
//
// Tree automata evaluate independently on disjoint subtrees (the paper's
// Sections 6.2 and 7), and the preorder storage layout makes every
// subtree one contiguous byte range of the .arb file. Exec with
// ExecOpts{Workers: n} exploits both: the database's subtree index (the
// .idx sidecar, rebuilt transparently for databases that lack one) cuts
// the file into a frontier of chunks, a worker pool streams each chunk
// through its own buffered reader for both evaluation phases, and the
// lazily-computed automata are shared so transitions computed by one
// worker serve all. The aggregate I/O stays at two linear scans' worth,
// memory per worker stays bounded by the document depth, and the
// selected nodes are bit-identical to the sequential run's. The arb CLI
// exposes this as `arb query -j N`.
//
//	res, prof, err := pq.Exec(ctx, arb.ExecOpts{Workers: 4, Stats: true})
//
// Parallelism pays off on large documents whose trees are reasonably
// balanced — the ACGT-infix sequence encoding is the paper's showcase —
// because balanced trees cut into evenly-sized chunks. On degenerate
// right-deep trees (long sibling chains, e.g. ACGT-flat) the frontier
// collapses into one huge chain and evaluation degrades toward
// sequential; that asymmetry is exactly why the paper restructures
// sequences into balanced infix trees. In-memory sessions parallelise
// the same way, over their tree's record image; the benchmark's
// `parallel.mem_speedup_w2` and `disk_speedup_w2` rows measure both at
// two workers.
//
// # Batch execution
//
// The two linear scans dominate the cost model and are query-independent
// I/O, so a server fielding many concurrent queries should pay them once
// per workload, not once per query. Session.PrepareBatch groups any mix
// of TMNF programs and Core XPath queries into a PreparedBatch whose
// Exec evaluates every member during a single pair of scans per round:
// the scan iteration and the temporary state file are shared — the
// members step one product of their lazily built automata, one state id
// per node — each member keeps its own automata and its own Result,
// and the selected nodes are bit-identical to stand-alone execution on
// every strategy (sequential and parallel, in memory and on disk).
// Multi-pass not(..) members piggyback too — round r runs pass r of
// every member that still has one, so the batch's scan-pair count is the
// deepest member's pass count rather than the sum over members.
//
//	pb, err := sess.PrepareBatch(prog, xq1, xq2)
//	results, prof, err := pb.Exec(ctx, arb.ExecOpts{Stats: true})
//	// prof.Disk.PhaseN.Bytes + prof.Disk.PhaseN.SkippedBytes == database
//	// bytes per phase: exactly two aggregate linear scans' worth of
//	// coverage, however many queries.
//
// The CLI exposes batches as `arb query <base> -f queries.txt -batch`.
//
// # Serving
//
// Prepared handles are reentrant: any number of goroutines may Exec one
// PreparedQuery or PreparedBatch at once, overlapping freely while the
// compiled automata stay shared and warm (engines synchronise
// internally; disk runs overlap, each with its own anonymous state file).
// That is what `arb serve` (internal/server) builds on: a long-running
// HTTP query server with an LRU plan cache over normalized query text,
// which runs each miss as its own Exec of the cached handle in one of a
// bounded number of execution slots. Session.BatchOf folds
// already-prepared handles into a shared-scan batch without recompiling,
// for a caller that has a set of queries to answer together
// (examples/batchserve).
//
// # Compressed extents
//
// Both scan passes are sequential-bandwidth-bound, so block-compressed
// databases (format v3; CompressDB, CLI: `arb create -compress`) trade
// spare CPU for proportionally fewer bytes read: the .arb record stream
// is stored as independently compressed fixed-size extents behind the
// same ReadAt interface every scan primitive already uses, so all
// strategies — sequential, parallel, batched, pruned, patched — run
// unmodified and bit-identical on compressed databases. Incompressible
// blocks are stored raw, old uncompressed databases keep opening
// transparently, and Profile's ScanStats report physical next to
// logical bytes (Disk.PhaseN.PhysicalBytes).
//
// # Selectivity-aware scan pruning
//
// For selective queries most of those scanned bytes are provably
// irrelevant: a static analysis of the compiled automata derives the set
// of live labels (and whether whole label-disjoint subtrees can ever
// contribute a state or a selection), and every strategy then seeks past
// subtree extents whose label summary — carried per extent by the v2
// .idx sidecar, or by an index built from an in-memory session's record
// image — is disjoint from it. Pruned execution is bit-identical to
// unpruned on every strategy and batch member; ExecOpts.NoPrune (CLI:
// `arb query -noprune`) disables it, and Profile reports the savings
// (Disk.PhaseN.SkippedBytes, Engine.PrunedNodes).
package arb

import (
	"io"

	"arb/internal/core"
	"arb/internal/rescache"
	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/xmlparse"
	"arb/internal/xpath"
)

// Re-exported core types. These aliases are the stable names; see the
// originating packages for full documentation.
type (
	// Tree is an in-memory binary (first-child/next-sibling) tree.
	Tree = tree.Tree
	// NodeID is a node's preorder index (= XML document order).
	NodeID = tree.NodeID
	// Names maps label indices to tag names (the .lab table).
	Names = tree.Names

	// Program is a TMNF program (possibly with several query predicates).
	Program = tmnf.Program
	// Pred identifies an IDB predicate of a Program.
	Pred = tmnf.Pred

	// DB is an open .arb database in secondary storage.
	DB = storage.DB
	// CreateStats reports database-creation statistics (Figure 5).
	CreateStats = storage.CreateStats

	// Result holds the selected nodes per query predicate.
	Result = core.Result
	// DiskStats reports the scan profile of a secondary-storage run
	// (Profile.Disk).
	DiskStats = core.DiskStats
	// Stats reports engine work (the paper's Figure 6 columns).
	Stats = core.Stats

	// XPathQuery is a Core XPath query compiled to TMNF passes.
	XPathQuery = xpath.Query

	// ResultCacheStats reports the result cache's counters
	// (Session.ResultCacheStats).
	ResultCacheStats = rescache.Stats
)

// ParseProgram parses a TMNF program in the Arb surface syntax,
// including caterpillar expressions. The predicate named QUERY (or Query)
// is the query predicate by default; use Program.SetQueries to override.
func ParseProgram(src string) (*Program, error) { return tmnf.Parse(src) }

// ParseXPath parses a Core XPath query and translates it to TMNF. The
// positive fragment compiles to a single program; not(..) conditions add
// auxiliary passes, which Session.PrepareXPath runs before the main pass.
func ParseXPath(src string) (*XPathQuery, error) { return xpath.Compile(src) }

// ParseXML parses an XML document into an in-memory tree, text as one
// node per character.
func ParseXML(r io.Reader) (*Tree, error) {
	return xmlparse.ParseTree(r)
}

// TreeBuilder constructs an in-memory tree from document events
// (Begin/Text/End), producing the binary encoding incrementally.
type TreeBuilder = tree.Builder

// NewTreeBuilder returns a builder with a fresh label-name table.
func NewTreeBuilder() *TreeBuilder { return tree.NewBuilder(nil) }

// CreateDB builds a .arb database (base.arb, base.lab, base.idx) from an
// XML document in one forward pass: as the parser's events arrive, each
// node's record of the binary-tree encoding is written in preorder, with
// memory proportional to the document depth. A document that is not well
// formed fails before base.arb is committed, so a database already at
// base stays as it was.
func CreateDB(base string, xml io.Reader) (*DB, *CreateStats, error) {
	return xmlparse.CreateDB(base, xml, storage.CreateOpts{})
}

// CreateDBFromTree writes an in-memory tree as a database.
func CreateDBFromTree(base string, t *Tree) (*DB, error) {
	return storage.CreateFromTree(base, t)
}

// OpenDB opens an existing database. Raw and block-compressed
// databases are distinguished by their container magic; both serve the
// same logical record space.
func OpenDB(base string) (*DB, error) { return storage.Open(base) }

// CompressionInfo summarises a block-compressed database container:
// codec, block size, and physical versus logical bytes
// (CompressionInfo.Ratio). DB.Compression reports it for open handles.
type CompressionInfo = storage.ContainerInfo

// CodecName returns the human-readable name of a CompressionInfo codec
// ("raw" or "lz").
func CodecName(codec uint8) string { return storage.CodecName(codec) }

// CompressDB rewrites base.arb in place as a block-compressed container
// (format v3) with the built-in LZ codec, replacing it atomically;
// blockSize 0 selects the default extent size. The .idx sidecar stays
// valid, since compression moves no node. Every reader opened afterwards
// — including old handles' snapshots in the versioned store — sees
// identical records; only the physical layout changes.
func CompressDB(base string, blockSize int) (CompressionInfo, error) {
	return storage.CompressInPlace(base, storage.CodecLZ, blockSize)
}
