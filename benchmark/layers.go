package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"arb"
	"arb/internal/core"
	"arb/internal/parallel"
	"arb/internal/rescache"
	"arb/internal/server"
	"arb/internal/storage"
	"arb/internal/tmnf"
	"arb/internal/tree"
	"arb/internal/vstore"
	"arb/internal/xpath"
)

// layerMetrics names every per-layer metric with its unit, layer.metric;
// BENCHMARK.json's per_layer list is this table. The traced pass of every
// workload reports all of them: the probes are the same on every workload
// (same corpus, same calls), the trace.* shares and the few values the
// measured loop observes itself differ, and read 0 where a workload never
// enters the layer. A per-node time of a two-pass operation is its whole
// duration over the node count. better is the direction BENCHMARK.json
// declares; per-layer metrics explain, they are not gated.
var layerMetrics = []struct{ name, unit, better string }{
	// storage: what set-up costs, the device term of the cost model, and
	// the readers with no automaton on top — raw, then block-compressed.
	{"storage.create_ns_per_node", "ns/node", "lower"},
	{"storage.index_build_ms", "ms", "lower"},
	{"storage.compress_mb_per_s", "MB/s", "higher"},
	{"storage.compress_ratio", "ratio", "higher"},
	{"storage.readat_mb_per_s", "MB/s", "higher"},
	{"storage.fold_ns_per_node", "ns/node", "lower"},
	{"storage.scan_ns_per_node", "ns/node", "lower"},
	{"storage.backread_ns_per_unit_w2", "ns/unit", "lower"},
	{"storage.backread_ns_per_unit_w4", "ns/unit", "lower"},
	{"storage.block_decode_mb_per_s", "MB/s", "higher"},
	{"storage.block_reread_mb_per_s", "MB/s", "higher"},
	{"storage.fold_z_ns_per_node", "ns/node", "lower"},
	{"storage.scan_z_ns_per_node", "ns/node", "lower"},
	{"storage.bytes_read_per_query", "B", "lower"}, // per answer: batch members count singly
	{"storage.skipped_share", "ratio", "higher"},
	// core: the two-pass engine without and with storage under it.
	{"core.mem_ns_per_node", "ns/node", "lower"},
	{"core.disk_ns_per_node", "ns/node", "lower"},
	{"core.phase1_ms", "ms", "lower"},
	{"core.phase2_ms", "ms", "lower"},
	{"core.state_bytes_per_query", "B", "lower"},
	{"core.batch8_ns_per_member_node", "ns/node", "lower"},
	{"core.cold_transitions", "count", "lower"},
	{"core.bu_states", "count", "lower"},
	{"core.td_states", "count", "lower"},
	{"core.compile_us", "us", "lower"},
	{"core.plan_prune_us", "us", "lower"},
	{"core.pruned_node_share", "ratio", "higher"},
	// frontends: what a plan-cache miss pays.
	{"xpath.parse_us", "us", "lower"},
	{"xpath.normalize_us", "us", "lower"},
	{"xpath.prepare_us", "us", "lower"},
	{"tmnf.parse_us", "us", "lower"},
	// parallel: informational on two shared cores.
	{"parallel.mem_speedup_w2", "ratio", "higher"},
	{"parallel.disk_speedup_w2", "ratio", "higher"},
	// vstore: commits back to back with no reader, and reading a patched
	// version.
	{"vstore.replace_ms", "ms", "lower"},
	{"vstore.insert_ms", "ms", "lower"},
	{"vstore.delete_ms", "ms", "lower"},
	{"vstore.compact_ms", "ms", "lower"},
	{"vstore.bytes_written_per_patch_byte", "ratio", "lower"},
	{"vstore.segments_max", "count", "lower"},
	{"vstore.open_ms", "ms", "lower"},
	{"vstore.snapshot_ns", "ns", "lower"},
	{"vstore.stitched_fold_ratio", "ratio", "lower"},
	{"vstore.patch_p90_ms", "ms", "lower"}, // demoted end-to-end metric, patch_mix only
	// rescache: direct Cache calls, then what serve_zipf's loop saw.
	{"rescache.lookup_hit_ns", "ns", "lower"},
	{"rescache.lookup_subsumed_us", "us", "lower"},
	{"rescache.put_us", "us", "lower"},
	{"rescache.hit_share", "ratio", "higher"},
	{"rescache.subsumed_share", "ratio", "higher"},
	{"rescache.miss_share", "ratio", "lower"},
	{"rescache.evictions", "count", "lower"},
	// server: the HTTP floor, then what serve_zipf's loop saw.
	{"server.healthz_roundtrip_us", "us", "lower"},
	{"server.hit_roundtrip_us", "us", "lower"},
	{"server.encode_ids_us", "us", "lower"},
	{"server.plan_cache_hit_share", "ratio", "higher"},
	{"server.plans_per_scan_pair", "ratio", "higher"},
	{"server.scan_pairs", "count", "lower"},
	{"server.throttled", "count", "lower"},
	{"server.scanning_miss_share", "ratio", "lower"},
	{"server.p50_request_scan_bytes", "B", "lower"},
	{"server.query_p99_ms", "ms", "lower"}, // demoted end-to-end metric, serve_zipf only
	// arb: the session on top of core, against the paper's cost model.
	{"arb.exec_ns_per_node", "ns/node", "lower"},
	{"arb.exec_mb_per_s", "MB/s", "higher"},
	{"arb.model_ratio", "ratio", "lower"},
	{"arb.session_overhead_us", "us", "lower"},
	{"arb.trycached_ns", "ns", "lower"},
	{"arb.peak_rss_mb", "MB", "lower"},
	{"arb.alloc_mb_per_query", "MB", "lower"},
	{"arb.gc_cycles", "count", "lower"},
	// trace: where the traced loop's time went, by the layer of the span.
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.bench_self_share", "ratio", "lower"},
	{"trace.arb_self_share", "ratio", "lower"},
	{"trace.core_self_share", "ratio", "lower"},
	{"trace.storage_self_share", "ratio", "lower"},
	{"trace.server_self_share", "ratio", "lower"},
	{"trace.vstore_self_share", "ratio", "lower"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchmark: undeclared per-layer metric " + name)
}

func (r *result) setLayer(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
}

// runtimeStats is the part of the Go runtime's accounting the traced loop
// is bracketed with.
type runtimeStats struct {
	alloc uint64
	gcs   uint32
}

func (r *runtimeStats) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.alloc, r.gcs = m.TotalAlloc, m.NumGC
}

// perLayer reports what the traced loop showed: the values it observed
// itself, each layer's self time as a share of all span self time, the
// tracing overhead against the untraced slice, and memory.
func perLayer(b *bench, res *result, s, plain samples, tr *tracer, ms0, ms1 runtimeStats) {
	for name, v := range b.observed(s) {
		res.setLayer(name, v)
	}
	self, total := tr.selfTimes()
	for _, l := range []string{"bench", "arb", "core", "storage", "server", "vstore"} {
		if total > 0 {
			res.setLayer("trace."+l+"_self_share", float64(self[l])/float64(total))
		}
	}
	res.setLayer("trace.spans", float64(len(tr.spans)))
	if base := median(plain.query); base > 0 {
		res.setLayer("trace.overhead_ratio", median(s.query)/base)
	}
	res.setLayer("arb.alloc_mb_per_query", float64(ms1.alloc-ms0.alloc)/float64(s.answers)/(1<<20))
	res.setLayer("arb.gc_cycles", float64(ms1.gcs-ms0.gcs))
}

func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		d, err := timeIt(f)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// perOp times iters calls of f together, reps times, and returns the
// median time of one call: for operations too short to time singly.
func perOp(iters, reps int, f func(i int) error) (time.Duration, error) {
	n := 0
	d, err := medianOf(reps, func() error {
		for i := 0; i < iters; i++ {
			if err := f(n); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	return d / time.Duration(iters), err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// copyDB copies a database's files (.arb, .lab, .idx) to a new base.
func copyDB(from, to string) error {
	for _, ext := range []string{".arb", ".lab", ".idx"} {
		buf, err := os.ReadFile(from + ext)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to+ext, buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// probes measures each layer from outside, by timing public calls on
// databases of the same corpus, and fills in every per-layer metric the
// traced loop did not.
func probes(b *bench, res *result, dir string) error {
	p := &prober{b: b, res: res, ctx: context.Background(), pool: regexPool(b.cfg.seed)}
	for _, sub := range []string{"raw", "z", "v"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	p.rawBase, p.zBase, p.vBase = filepath.Join(dir, "raw", "c"), filepath.Join(dir, "z", "c"), filepath.Join(dir, "v", "c")
	for _, step := range []func() error{p.storage, p.compressed, p.core, p.frontends, p.parallel, p.vstore, p.rescache, p.server, p.arb} {
		if err := step(); err != nil {
			return err
		}
	}
	if p.db != nil {
		if err := p.db.Close(); err != nil {
			return err
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.setLayer("arb.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KB
	}
	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			res.setLayer(m.name, 0)
		}
	}
	return nil
}

type prober struct {
	b                     *bench
	res                   *result
	ctx                   context.Context
	pool                  []query
	rawBase, zBase, vBase string
	db                    *storage.DB // raw database, open from storage() on
	readBW                float64     // bytes/s of raw sequential ReadAt
	foldNS                float64     // raw fold, ns/node
}

func (p *prober) perNode(d time.Duration) float64 { return float64(d) / float64(p.db.N) }

func trivialFold(ctx context.Context, db *storage.DB) error {
	_, _, err := storage.FoldBottomUp(ctx, db, func(first, second *int32, rec storage.Record, v int64) int32 { return 1 })
	return err
}

func trivialScan(ctx context.Context, db *storage.DB) error {
	_, err := storage.ScanTopDown(ctx, db, func(v int64, rec storage.Record, parent *int32, k int) (int32, error) { return 1, nil })
	return err
}

func (p *prober) storage() error {
	start := time.Now()
	if err := p.b.c.create(p.rawBase); err != nil {
		return err
	}
	created := time.Since(start)
	db, err := storage.Open(p.rawBase)
	if err != nil {
		return err
	}
	p.db = db
	p.res.setLayer("storage.create_ns_per_node", p.perNode(created))

	d, err := medianOf(3, func() error { _, err := storage.BuildIndex(p.ctx, db, 0); return err })
	if err != nil {
		return err
	}
	p.res.setLayer("storage.index_build_ms", ms(d))

	f, err := os.Open(p.rawBase + ".arb")
	if err != nil {
		return err
	}
	defer f.Close()
	size := db.N * storage.NodeSize
	buf := make([]byte, 64<<10)
	const passes = 16
	d, err = medianOf(5, func() error {
		for i := 0; i < passes; i++ {
			for off := int64(0); off < size; off += int64(len(buf)) {
				if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.readBW = float64(passes*size) / d.Seconds()
	p.res.setLayer("storage.readat_mb_per_s", p.readBW/1e6)

	if d, err = medianOf(5, func() error { return trivialFold(p.ctx, db) }); err != nil {
		return err
	}
	p.foldNS = p.perNode(d)
	p.res.setLayer("storage.fold_ns_per_node", p.foldNS)
	if d, err = medianOf(5, func() error { return trivialScan(p.ctx, db) }); err != nil {
		return err
	}
	p.res.setLayer("storage.scan_ns_per_node", p.perNode(d))

	// The state file is read back through BackwardReader at 2 or 4 bytes
	// per node, depending on how many states the automaton has.
	for _, w := range []int{2, 4} {
		path := filepath.Join(filepath.Dir(p.rawBase), fmt.Sprintf("units%d", w))
		if err := os.WriteFile(path, make([]byte, db.N*int64(w)), 0o644); err != nil {
			return err
		}
		uf, err := os.Open(path)
		if err != nil {
			return err
		}
		d, err := medianOf(5, func() error {
			br, err := storage.NewBackwardReader(uf, db.N*int64(w), w)
			if err != nil {
				return err
			}
			defer br.Release()
			for {
				if _, err := br.Next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
		uf.Close()
		if err != nil {
			return err
		}
		p.res.setLayer(fmt.Sprintf("storage.backread_ns_per_unit_w%d", w), p.perNode(d))
	}
	return nil
}

func (p *prober) compressed() error {
	if err := copyDB(p.rawBase, p.zBase); err != nil {
		return err
	}
	start := time.Now()
	info, err := storage.CompressInPlace(p.zBase, storage.CodecLZ, blockSize)
	if err != nil {
		return err
	}
	p.res.setLayer("storage.compress_mb_per_s", float64(info.LogicalBytes)/1e6/time.Since(start).Seconds())
	p.res.setLayer("storage.compress_ratio", info.Ratio())

	f, err := os.Open(p.zBase + ".arb")
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, info.BlockSize)
	readBlocks := func(src io.ReaderAt, blocks, times int) error {
		for t := 0; t < times; t++ {
			for i := 0; i < blocks; i++ {
				if _, err := src.ReadAt(buf, int64(i)*int64(info.BlockSize)); err != nil && err != io.EOF {
					return err
				}
			}
		}
		return nil
	}
	// Cold: a fresh source per repetition, so every block is decoded.
	d, err := medianOf(5, func() error {
		src, _, ok, err := storage.OpenContainer(f, st.Size())
		if err != nil || !ok {
			return fmt.Errorf("open container: ok=%v err=%v", ok, err)
		}
		return readBlocks(src, info.Blocks, 1)
	})
	if err != nil {
		return err
	}
	p.res.setLayer("storage.block_decode_mb_per_s", float64(info.LogicalBytes)/1e6/d.Seconds())
	// Re-read: the same 16 blocks, which the 32-slot cache holds.
	src, _, _, err := storage.OpenContainer(f, st.Size())
	if err != nil {
		return err
	}
	hot := 16
	if hot > info.Blocks {
		hot = info.Blocks
	}
	if err := readBlocks(src, hot, 1); err != nil {
		return err
	}
	const times = 32
	if d, err = medianOf(5, func() error { return readBlocks(src, hot, times) }); err != nil {
		return err
	}
	p.res.setLayer("storage.block_reread_mb_per_s", float64(times*hot*info.BlockSize)/1e6/d.Seconds())

	zdb, err := storage.Open(p.zBase)
	if err != nil {
		return err
	}
	defer zdb.Close()
	if d, err = medianOf(5, func() error { return trivialFold(p.ctx, zdb) }); err != nil {
		return err
	}
	p.res.setLayer("storage.fold_z_ns_per_node", p.perNode(d))
	if d, err = medianOf(5, func() error { return trivialScan(p.ctx, zdb) }); err != nil {
		return err
	}
	p.res.setLayer("storage.scan_z_ns_per_node", p.perNode(d))
	return nil
}

// engine compiles a TMNF source against the raw database's name table.
func (p *prober) engine(src string) (*core.Engine, error) {
	prog, err := tmnf.Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(prog)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(c, p.db.Names), nil
}

func (p *prober) core() error {
	src := p.pool[0].src
	d, err := perOp(20, 5, func(int) error { _, err := p.engine(src); return err })
	if err != nil {
		return err
	}
	p.res.setLayer("core.compile_us", us(d))

	// First run of a fresh engine: every transition is computed.
	e, err := p.engine(src)
	if err != nil {
		return err
	}
	var cold core.RunStats
	if _, _, err := e.RunDiskContext(p.ctx, p.db, core.DiskOpts{Run: &cold}); err != nil {
		return err
	}
	cs := cold.Snapshot()
	p.res.setLayer("core.cold_transitions", float64(cs.BUTransitions+cs.TDTransitions))
	p.res.setLayer("core.bu_states", float64(e.BUStateCount()))
	p.res.setLayer("core.td_states", float64(e.Stats().TDStates))

	var warm core.RunStats
	var ds *core.DiskStats
	if d, err = medianOf(5, func() error {
		warm = core.RunStats{}
		_, ds, err = e.RunDiskContext(p.ctx, p.db, core.DiskOpts{Run: &warm})
		return err
	}); err != nil {
		return err
	}
	ws := warm.Snapshot()
	p.res.setLayer("core.disk_ns_per_node", p.perNode(d))
	p.res.setLayer("core.phase1_ms", ms(ws.Phase1Time))
	p.res.setLayer("core.phase2_ms", ms(ws.Phase2Time))
	p.res.setLayer("core.state_bytes_per_query", float64(ds.StateBytes))

	t, err := p.db.ReadTree(p.ctx)
	if err != nil {
		return err
	}
	if _, err := e.RunContext(p.ctx, t, core.RunOpts{}); err != nil {
		return err
	}
	if d, err = medianOf(5, func() error { _, err := e.RunContext(p.ctx, t, core.RunOpts{}); return err }); err != nil {
		return err
	}
	p.res.setLayer("core.mem_ns_per_node", p.perNode(d))

	members := make([]core.BatchMember, batchSize)
	for i := range members {
		me, err := p.engine(p.pool[i].src)
		if err != nil {
			return err
		}
		members[i] = core.BatchMember{E: me, AuxInSlot: -1, AuxOutSlot: -1}
	}
	runBatch := func() error {
		_, _, _, err := core.RunDiskBatch(p.ctx, p.db, members, core.DiskBatchOpts{})
		return err
	}
	if err := runBatch(); err != nil {
		return err
	}
	if d, err = medianOf(3, runBatch); err != nil {
		return err
	}
	p.res.setLayer("core.batch8_ns_per_member_node", p.perNode(d)/batchSize)

	re, err := p.engine(labelProgram(rare(3)))
	if err != nil {
		return err
	}
	ix, err := p.db.Index(p.ctx, 0)
	if err != nil {
		return err
	}
	var plan *core.PrunePlan
	if d, err = perOp(20, 5, func(int) error {
		plan = core.PlanPrune([]*core.Engine{re}, ix, p.db.N)
		return nil
	}); err != nil {
		return err
	}
	p.res.setLayer("core.plan_prune_us", us(d))
	if plan != nil {
		p.res.setLayer("core.pruned_node_share", float64(plan.Nodes)/float64(p.db.N))
	}
	return nil
}

func (p *prober) frontends() error {
	const x = "//VP[PP]/NP"
	d, err := perOp(200, 5, func(int) error { _, err := xpath.Parse(x); return err })
	if err != nil {
		return err
	}
	p.res.setLayer("xpath.parse_us", us(d))
	if d, err = perOp(200, 5, func(int) error { _, err := xpath.Normalize(x); return err }); err != nil {
		return err
	}
	p.res.setLayer("xpath.normalize_us", us(d))
	q, err := xpath.Compile(x)
	if err != nil {
		return err
	}
	if d, err = perOp(50, 5, func(int) error { _, err := q.Prepare(p.db.Names); return err }); err != nil {
		return err
	}
	p.res.setLayer("xpath.prepare_us", us(d))
	if d, err = perOp(200, 5, func(int) error { _, err := tmnf.Parse(p.pool[0].src); return err }); err != nil {
		return err
	}
	p.res.setLayer("tmnf.parse_us", us(d))
	return nil
}

func (p *prober) parallel() error {
	e, err := p.engine(p.pool[0].src)
	if err != nil {
		return err
	}
	t, err := p.db.ReadTree(p.ctx)
	if err != nil {
		return err
	}
	if _, err := e.RunContext(p.ctx, t, core.RunOpts{}); err != nil {
		return err
	}
	seq, err := medianOf(3, func() error { _, err := e.RunContext(p.ctx, t, core.RunOpts{}); return err })
	if err != nil {
		return err
	}
	par, err := medianOf(3, func() error { _, err := parallel.RunContext(p.ctx, e, t, 2, core.RunOpts{}); return err })
	if err != nil {
		return err
	}
	p.res.setLayer("parallel.mem_speedup_w2", float64(seq)/float64(par))

	sess := arb.NewDBSession(p.db)
	pq, err := prepare(sess, p.pool[0])
	if err != nil {
		return err
	}
	var ds [2]time.Duration
	for i, workers := range []int{1, 2} {
		run := func() error { _, _, err := pq.Exec(p.ctx, arb.ExecOpts{Workers: workers}); return err }
		if err := run(); err != nil {
			return err
		}
		if ds[i], err = medianOf(3, run); err != nil {
			return err
		}
	}
	p.res.setLayer("parallel.disk_speedup_w2", float64(ds[0])/float64(ds[1]))
	return nil
}

func (p *prober) vstore() error {
	if err := copyDB(p.rawBase, p.vBase); err != nil {
		return err
	}
	vs, err := vstore.Open(p.ctx, p.vBase)
	if err != nil {
		return err
	}
	defer func() {
		if vs != nil {
			vs.Close()
		}
	}()
	files, err := p.b.c.layout()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.b.cfg.seed ^ 0x51de))
	var kinds [3][]float64
	var written, payload int64
	segments := 0
	patches := compactEvery
	if p.b.cfg.smoke {
		patches = 12
	}
	for i := 0; i < patches; i++ {
		f, kind := files.draw(rng)
		var frag *tree.Tree
		if kind != deleteFirst {
			if frag, err = p.b.c.fragment(rng); err != nil {
				return err
			}
		}
		node := files.node(f)
		var info *vstore.PatchInfo
		start := time.Now()
		switch kind {
		case replaceFirst:
			info, err = vs.ReplaceSubtree(p.ctx, node+1, frag)
		case insertFirst:
			info, err = vs.InsertChild(p.ctx, node, frag)
		case deleteFirst:
			info, err = vs.DeleteSubtree(p.ctx, node+1)
		}
		if err != nil {
			return err
		}
		kinds[kind] = append(kinds[kind], ms(time.Since(start)))
		files.applied(f, kind, info.Delta)
		written += info.SegmentBytes
		if frag != nil {
			payload += storage.NodeSize * int64(frag.Len())
		}
		if n := vs.Stats().Segments; n > segments {
			segments = n
		}
	}
	p.res.setLayer("vstore.replace_ms", median(kinds[replaceFirst]))
	p.res.setLayer("vstore.insert_ms", median(kinds[insertFirst]))
	p.res.setLayer("vstore.delete_ms", median(kinds[deleteFirst]))
	p.res.setLayer("vstore.bytes_written_per_patch_byte", float64(written)/float64(payload))
	p.res.setLayer("vstore.segments_max", float64(segments))

	d, err := perOp(1000, 5, func(int) error { vs.Snapshot().Release(); return nil })
	if err != nil {
		return err
	}
	p.res.setLayer("vstore.snapshot_ns", float64(d))
	snap := vs.Snapshot()
	d, err = medianOf(5, func() error { return trivialFold(p.ctx, snap.DB()) })
	nodes := snap.Nodes()
	snap.Release()
	if err != nil {
		return err
	}
	p.res.setLayer("vstore.stitched_fold_ratio", float64(d)/float64(nodes)/p.foldNS)

	// Opening a store with a chain of patch segments behind it.
	if d, err = medianOf(3, func() error {
		if err := vs.Close(); err != nil {
			return err
		}
		vs, err = vstore.Open(p.ctx, p.vBase)
		return err
	}); err != nil {
		vs = nil
		return err
	}
	p.res.setLayer("vstore.open_ms", ms(d))
	start := time.Now()
	if _, err := vs.Compact(p.ctx); err != nil {
		return err
	}
	p.res.setLayer("vstore.compact_ms", ms(time.Since(start)))
	err = vs.Close()
	vs = nil
	return err
}

func (p *prober) rescache() error {
	wide, err := tmnf.Parse(labelProgram("T0", "T1", "T2", "T3"))
	if err != nil {
		return err
	}
	pw, err := xpath.PrepareProgram(wide, p.db.Names)
	if err != nil {
		return err
	}
	narrow, err := tmnf.Parse(labelProgram("T0"))
	if err != nil {
		return err
	}
	pn, err := xpath.PrepareProgram(narrow, p.db.Names)
	if err != nil {
		return err
	}
	res, _, err := pw.ExecDisk(p.ctx, p.db, xpath.ExecOpts{Workers: 1})
	if err != nil {
		return err
	}
	var ids []uint64
	res.Walk(pw.Queries()[0], func(v tree.NodeID) bool {
		rec, rerr := p.db.RecordAt(int64(v))
		if rerr != nil {
			err = rerr
			return false
		}
		ids = append(ids, rescache.PackID(int64(v), tree.Label(rec.Label), v == 0))
		return true
	})
	if err != nil {
		return err
	}
	sumW, sumN := pw.Summary(), pn.Summary()
	if sumW == nil || sumN == nil {
		return errors.New("label programs admit no selection summary")
	}
	// An entry holds a bitmap of the whole document beside its ids, so
	// the probe publishes few enough to stay inside the budget.
	rc := rescache.New(resCacheBytes)
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("tmnf:probe%d", i)
	}
	d, err := perOp(20, 5, func(i int) error { rc.Put(keys[i], 1, res, sumW, ids); return nil })
	if err != nil {
		return err
	}
	p.res.setLayer("rescache.put_us", us(d))
	if d, err = perOp(1000, 5, func(int) error {
		if _, kind := rc.Lookup(keys[0], 1, sumW, wide, p.db.N); kind != rescache.Hit {
			return fmt.Errorf("rescache probe: lookup answered %v, want hit", kind)
		}
		return nil
	}); err != nil {
		return err
	}
	p.res.setLayer("rescache.lookup_hit_ns", float64(d))
	// A subsumed answer is stored under its own key, so every lookup
	// that is to be subsumed again needs a key not seen before.
	if d, err = perOp(20, 5, func(i int) error {
		if _, kind := rc.Lookup(fmt.Sprintf("tmnf:narrow%d", i), 1, sumN, narrow, p.db.N); kind != rescache.Subsumed {
			return fmt.Errorf("rescache probe: lookup answered %v, want subsumed", kind)
		}
		return nil
	}); err != nil {
		return err
	}
	p.res.setLayer("rescache.lookup_subsumed_us", us(d))
	return nil
}

func (p *prober) server() error {
	sess := arb.NewDBSession(p.db)
	ctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	srv := server.New(ctx, sess, server.Config{ResCacheBytes: resCacheBytes})
	defer srv.Close()
	hs, err := startHTTP(srv.Handler())
	if err != nil {
		return err
	}
	defer hs.stop()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	roundtrip := func(method, path, body string) error {
		req, err := http.NewRequestWithContext(ctx, method, hs.url+path, bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return err
	}
	iters := 300
	if p.b.cfg.smoke {
		iters = 20
	}
	d, err := perOp(iters, 5, func(int) error { return roundtrip("GET", "/healthz", "") })
	if err != nil {
		return err
	}
	p.res.setLayer("server.healthz_roundtrip_us", us(d))
	// Label[NP] selects more nodes than the server's 10 000-id cap.
	count := `{"query": "QUERY :- Label[NP];"}`
	withIDs := `{"query": "QUERY :- Label[NP];", "ids": true}`
	if err := roundtrip("POST", "/query", count); err != nil {
		return err
	}
	hit, err := perOp(iters, 5, func(int) error { return roundtrip("POST", "/query", count) })
	if err != nil {
		return err
	}
	p.res.setLayer("server.hit_roundtrip_us", us(hit))
	if d, err = perOp(iters/4, 5, func(int) error { return roundtrip("POST", "/query", withIDs) }); err != nil {
		return err
	}
	p.res.setLayer("server.encode_ids_us", us(d-hit))
	return nil
}

func (p *prober) arb() error {
	sess := arb.NewDBSession(p.db)
	sess.SetResultCache(resCacheBytes)
	pq, err := prepare(sess, p.pool[0])
	if err != nil {
		return err
	}
	e, err := p.engine(p.pool[0].src)
	if err != nil {
		return err
	}
	exec := func() error { _, _, err := pq.Exec(p.ctx, arb.ExecOpts{}); return err }
	direct := func() error { _, _, err := e.RunDiskContext(p.ctx, p.db, core.DiskOpts{}); return err }
	if err := exec(); err != nil {
		return err
	}
	if err := direct(); err != nil {
		return err
	}
	// Exec and the engine call it wraps, turn about: the session's share
	// is a small difference of two large times, so it is taken pairwise.
	var execs, over []float64
	for i := 0; i < 7; i++ {
		de, err := timeIt(exec)
		if err != nil {
			return err
		}
		dd, err := timeIt(direct)
		if err != nil {
			return err
		}
		execs, over = append(execs, float64(de)), append(over, float64(de-dd))
	}
	d := time.Duration(median(execs))
	bytes := float64(p.db.N * storage.NodeSize)
	p.res.setLayer("arb.exec_ns_per_node", p.perNode(d))
	p.res.setLayer("arb.exec_mb_per_s", 2*bytes/1e6/d.Seconds())
	// The paper's cost model: a query is two linear scans of the data.
	p.res.setLayer("arb.model_ratio", d.Seconds()/(2*bytes/p.readBW))
	p.res.setLayer("arb.session_overhead_us", median(over)/1e3)
	if _, _, err := pq.Exec(p.ctx, arb.ExecOpts{ResultCache: true}); err != nil {
		return err
	}
	d, err = perOp(1000, 5, func(int) error {
		if _, _, ok := pq.TryCached(); !ok {
			return errors.New("arb probe: TryCached missed a cached result")
		}
		return nil
	})
	p.res.setLayer("arb.trycached_ns", float64(d))
	return err
}
