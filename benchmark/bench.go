package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"arb"
	"arb/internal/storage"
)

// Sizes the program's own caches have in every workload, printed next to
// the corpus so that "larger than the cache" and "fits" can be checked.
const (
	blockSize     = 16 << 10 // compressed container block, bytes
	blockCache    = 32       // slots of storage's decompressed-block cache
	resCacheBytes = 32 << 20 // serve_zipf's result cache budget
	planCacheSize = 256      // server default plan cache capacity
)

// config is one invocation's input. Only seed shapes data and sequences.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	spec     corpusSpec
	root     string // scratch directory inside the checkout
	out      string // JSON-lines record file, "" for none
}

// metric is one reported number. Samples is how many timings a quantile
// was taken over (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// samples is what a workload's measured loop hands back.
type samples struct {
	query   []float64 // ms, the workload's primary operation
	heavy   []float64 // ms, its heavy operation (see README glossary)
	answers int       // query answers delivered (batch members count singly)
	wall    time.Duration
	layer   map[string]float64 // per-layer values the loop itself observed
}

// instance is one set-up workload: open databases, warm handles.
type instance interface {
	// gate checks every pool query once against the in-memory oracle.
	gate(b *bench, oracle *arb.Session)
	// run measures for at least d, and until minQuery primary and
	// minHeavy heavy operations have been timed.
	run(b *bench, d time.Duration, minQuery, minHeavy int) samples
	// verify makes the end-of-run checks that need the instance open.
	verify(b *bench)
	// nodes is the document's node count at the end of the run.
	nodes() int64
	close() error
}

// workloadDef declares one workload. The why strings are BENCHMARK.json's.
type workloadDef struct {
	name  string
	setup func(b *bench, dir string) (instance, error)
	// Operation counts the untraced run must reach however slow the
	// machine: enough for a p90 of the primary and a median of the
	// heavy operation under the ≥10-samples-beyond rule.
	minQuery, minHeavy int
	// The traced pass runs about a quarter of that, but never fewer than
	// the demoted tail percentiles need (p99 of 1000 requests on
	// serve_zipf, p90 of 100 patches on patch_mix).
	traceQuery, traceHeavy int
}

var workloads = []workloadDef{
	{"scan_full", func(b *bench, dir string) (instance, error) { return setupScan(b, dir, false) }, 100, 20, 25, 5},
	{"scan_pruned_z", func(b *bench, dir string) (instance, error) { return setupScan(b, dir, true) }, 320, 20, 80, 5},
	{"serve_zipf", setupServe, 4000, 20, 1000, 5},
	{"patch_mix", setupPatch, 100, 100, 25, 100},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// bench is one run's shared state: the corpus, the tracer (nil when
// tracing is off) and the tally of checked operations.
type bench struct {
	cfg config
	c   *corpus
	tr  *tracer
	req atomic.Int64
	// Database bytes the workload's own Execs read and seeked past, from
	// their Profiles; only the goroutine that calls Exec adds to them.
	read, skipped int64

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// check counts one attempted operation and, when ok is false, one failure.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.problems) < 10 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (b *bench) nextReq() int { return int(b.req.Add(1)) }

// windows reports whether the workloads' validation windows (skipped
// share, scanning-miss share, subsumed hits) apply: to the full-length
// untraced pass only, not to the traced pass's short slices or -smoke.
func (b *bench) windows() bool { return !b.cfg.trace && !b.cfg.smoke }

// dbHandle is an open unversioned database session plus whatever the
// traced pass opened underneath it.
type dbHandle struct {
	sess *arb.Session
	rd   *tracedReader // nil unless the run is traced
	db   *storage.DB
	f    *os.File
}

// open opens base as an unversioned session. A traced run reads the .arb
// through a tracedReader so physical reads show up as spans.
func (b *bench) open(base string) (*dbHandle, error) {
	if !b.cfg.trace {
		sess, err := arb.OpenSession(base)
		if err != nil {
			return nil, err
		}
		return &dbHandle{sess: sess}, nil
	}
	f, err := os.Open(base + ".arb")
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	rd := &tracedReader{r: f, b: b, cur: -1}
	db, err := storage.OpenReaderAt(base, rd, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &dbHandle{sess: arb.NewDBSession(db), rd: rd, db: db, f: f}, nil
}

func (h *dbHandle) close() error {
	err := h.sess.Close()
	if h.db != nil {
		if cerr := h.db.Close(); err == nil {
			err = cerr
		}
		if cerr := h.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// exec times one scalar Exec, checks its count against want (a negative
// want skips the check) and, when tracing, records
// bench.request → arb.exec → core.phase1, core.phase2 (→ storage.readat).
func (b *bench) exec(ctx context.Context, h *dbHandle, pq *arb.PreparedQuery, want int64, what string) (ms float64, count int64, prof *arb.Profile) {
	req := b.nextReq()
	root := b.tr.begin("bench.request", -1, req)
	call := b.tr.begin("arb.exec", root, req)
	if h != nil && h.rd != nil {
		h.rd.cur, h.rd.req = call, req
	}
	start := time.Now()
	res, prof, err := pq.Exec(ctx, arb.ExecOpts{Stats: true})
	d := time.Since(start)
	b.tr.end(call)
	if err != nil {
		b.check(false, "%s: %v", what, err)
		b.tr.end(root)
		return float64(d) / 1e6, -1, nil
	}
	b.phases(call, prof)
	b.account(prof)
	count = res.Count(pq.Queries()[0])
	b.check(want < 0 || count == want, "%s: count %d, want %d", what, count, want)
	b.tr.end(root)
	return float64(d) / 1e6, count, prof
}

// account adds one execution's scan profile to the run's byte counts.
func (b *bench) account(prof *arb.Profile) {
	if prof != nil {
		b.read += prof.Disk.Phase1.Bytes + prof.Disk.Phase2.Bytes
		b.skipped += prof.SkippedBytes()
	}
}

// observed is what the measured loop saw of the layers: the values it
// collected itself plus the byte counts of its Execs, per answer.
func (b *bench) observed(s samples) map[string]float64 {
	if b.read+b.skipped > 0 {
		s.layer["storage.skipped_share"] = float64(b.skipped) / float64(b.read+b.skipped)
		s.layer["storage.bytes_read_per_query"] = float64(b.read) / float64(s.answers)
	}
	return s.layer
}

// phases records the engine's reported phase times inside call: phase 2
// ends with the call, phase 1 ends where phase 2 starts; physical reads
// seen meanwhile move under the phase they fall into.
func (b *bench) phases(call int, prof *arb.Profile) {
	if b.tr == nil || prof == nil {
		return
	}
	p2 := b.tr.reported("core.phase2", call, prof.Engine.Phase2Time, -1)
	p1 := b.tr.reported("core.phase1", call, prof.Engine.Phase1Time, p2)
	b.tr.reparent(call, p1, "storage.readat")
	b.tr.reparent(call, p2, "storage.readat")
}

// versionCounts remembers the first count seen per (pool index, version):
// equal pairs must give equal counts, and version 1 is the corpus the
// gate checked.
type versionCounts map[[2]uint64]int64

// expect returns the count (query i, version) must have, given that this
// answer said count; gate is the gate's count for version 1.
func (v versionCounts) expect(i int, version uint64, count, gate int64) int64 {
	key := [2]uint64{uint64(i), version}
	if want, seen := v[key]; seen {
		return want
	}
	v[key] = count
	if version == 1 {
		return gate
	}
	return count
}

// gateCounts runs every pool query once in memory and once on the
// database — two different drivers — and returns the agreed counts.
func (b *bench) gateCounts(oracle *arb.Session, h *dbHandle, pool []query, pqs []*arb.PreparedQuery) []int64 {
	ctx := context.Background()
	want := make([]int64, len(pool))
	for i, q := range pool {
		n, err := countOn(ctx, oracle, q)
		if err != nil {
			b.check(false, "gate: in memory: %v", err)
			want[i] = -1
			continue
		}
		want[i] = n
		b.exec(ctx, h, pqs[i], n, "gate: "+q.src)
	}
	return want
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// result is the outcome of one pass over one workload.
type result struct {
	Workload  string
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Problems  []string
	Metrics   map[string]metric
	// Observed is what the untraced loop saw of the layers (validation
	// windows included); printed, not part of the pass's metrics.
	Observed map[string]float64
	Nodes    int64
	DBBytes  int64
}

// setupReps is how often the untraced pass sets the workload up; setup_s
// is the median, and the last instance is the one measured.
const setupReps = 3

// runWorkload makes one pass — untraced for the end-to-end metrics, or
// traced for the per-layer ones — over one workload.
func runWorkload(cfg config, w workloadDef) (*result, error) {
	b := &bench{cfg: cfg, c: newCorpus(cfg.seed, cfg.spec)}
	root, err := os.MkdirTemp(cfg.root, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	minQ, minH := w.minQuery, w.minHeavy
	reps := setupReps
	if cfg.trace {
		minQ, minH, reps = w.traceQuery, w.traceHeavy, 1
	}
	if cfg.smoke {
		minQ, minH, reps = 8, 2, 1
	}

	var inst instance
	var dir string
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(root, fmt.Sprintf("db%d", rep))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if inst, err = w.setup(b, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()

	doc, err := b.c.tree()
	if err != nil {
		return nil, err
	}
	inst.gate(b, arb.NewSession(doc))
	doc = nil

	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Workload: w.name, Trace: cfg.trace, Metrics: map[string]metric{}}
	b.read, b.skipped = 0, 0 // the gate's Execs are not the workload's
	if !cfg.trace {
		s := inst.run(b, d, minQ, minH)
		endToEnd(b, res, s, setups)
		res.Observed = b.observed(s)
	} else {
		// A short untraced slice on the same instance gives the base the
		// tracing overhead is a ratio of.
		plain := inst.run(b, d/8, minQ/2, minH/2)
		b.tr = newTracer()
		b.read, b.skipped = 0, 0
		var ms0, ms1 runtimeStats
		ms0.read()
		s := inst.run(b, d/4, minQ, minH)
		ms1.read()
		tr := b.tr
		b.tr = nil
		perLayer(b, res, s, plain, tr, ms0, ms1)
		if err := probes(b, res, filepath.Join(root, "probes")); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		if cfg.out != "" {
			if err := tr.write(cfg.out + "." + w.name + ".spans"); err != nil {
				return nil, err
			}
		}
	}

	inst.verify(b)
	res.Nodes = inst.nodes()
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, err
	}
	if res.DBBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.Metrics["bytes_per_node"] = metric{Value: float64(res.DBBytes) / float64(res.Nodes), Unit: "B/node"}
	}
	res.Attempted, res.Failed, res.Problems = b.attempted, b.failed, b.problems
	res.Correct = b.failed == 0
	return res, nil
}

// endToEnd fills in the metrics a user of the system would see.
func endToEnd(b *bench, res *result, s samples, setups []float64) {
	nq, nh := len(s.query), len(s.heavy)
	if b.windows() {
		b.check(supports(nq, 0.9), "%d primary samples do not carry a p90", nq)
		b.check(supports(nh, 0.5), "%d heavy samples do not carry a median", nh)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	res.Metrics["query_p50_ms"] = metric{quantile(s.query, 0.5), "ms", nq}
	res.Metrics["query_p90_ms"] = metric{quantile(s.query, 0.9), "ms", nq}
	res.Metrics["heavy_p50_ms"] = metric{quantile(s.heavy, 0.5), "ms", nh}
	res.Metrics["queries_per_s"] = metric{float64(s.answers) / s.wall.Seconds(), "1/s", s.answers}
}
