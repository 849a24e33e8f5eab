package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"arb"
)

const (
	// patchInterval is the writer's fixed schedule; each commit is timed
	// from when it was due, so a stall shows in every patch it delays.
	patchInterval = 50 * time.Millisecond
	compactEvery  = 100 // patches between two compactions
)

// patchInst is patch_mix: one versioned session, a writer committing
// sentence-sized patches on a schedule and a reader running scan_full's
// scalar queries over whatever version is current.
type patchInst struct {
	base  string
	sess  *arb.Session
	pool  []query
	pqs   []*arb.PreparedQuery
	want  []int64
	files *fileTable
	rng   *rand.Rand
	next  int // reader's round-robin position

	patches int           // committed so far, all run calls
	lastAck uint64        // version of the last acknowledged commit
	seen    versionCounts // reader only
}

func setupPatch(b *bench, dir string) (instance, error) {
	p := &patchInst{
		base: filepath.Join(dir, "c"),
		pool: regexPool(b.cfg.seed),
		rng:  rand.New(rand.NewSource(b.cfg.seed ^ 0x9a7c)),
		seen: versionCounts{},
	}
	err := b.c.create(p.base)
	if err != nil {
		return nil, err
	}
	if p.files, err = b.c.layout(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if p.sess, err = arb.OpenVersionedSession(ctx, p.base); err != nil {
		return nil, err
	}
	p.lastAck = p.sess.Version()
	if p.pqs, err = prepareAll(p.sess, p.pool); err != nil {
		p.sess.Close()
		return nil, err
	}
	for i, pq := range p.pqs {
		if _, _, err := pq.Exec(ctx, arb.ExecOpts{}); err != nil {
			p.sess.Close()
			return nil, fmt.Errorf("warm-up %s: %w", p.pool[i].src, err)
		}
	}
	return p, nil
}

func (p *patchInst) gate(b *bench, oracle *arb.Session) {
	p.want = b.gateCounts(oracle, nil, p.pool, p.pqs)
}

func (p *patchInst) run(b *bench, d time.Duration, minQuery, minHeavy int) samples {
	out := samples{layer: map[string]float64{}}
	var reads, patched atomic.Int64
	start := time.Now()
	done := func() bool {
		return time.Since(start) >= d && reads.Load() >= int64(minQuery) && patched.Load() >= int64(minHeavy)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; !done(); i++ {
			// The fragment is built before the patch is due, so the
			// harness's own work is not in the commit's latency.
			op, f, kind := p.nextOp(b)
			due := start.Add(time.Duration(i) * patchInterval)
			time.Sleep(time.Until(due))
			info := p.apply(ctx, b, op, f, kind)
			ms := float64(time.Since(due)) / 1e6
			if info == nil {
				continue
			}
			out.heavy = append(out.heavy, ms)
			patched.Add(1)
			if p.patches%compactEvery == 0 {
				p.compact(ctx, b)
			}
		}
	}()

	ctx := context.Background()
	lastVersion := uint64(0)
	for !done() {
		i := p.next % len(p.pqs)
		p.next++
		ms, count, prof := b.exec(ctx, nil, p.pqs[i], -1, p.pool[i].src)
		reads.Add(1)
		out.query = append(out.query, ms)
		if prof == nil {
			continue
		}
		b.check(prof.Version >= lastVersion, "reader saw version %d after %d", prof.Version, lastVersion)
		lastVersion = prof.Version
		want := p.seen.expect(i, prof.Version, count, p.want[i])
		b.check(count == want, "%s at version %d: count %d, want %d", p.pool[i].src, prof.Version, count, want)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.answers = len(out.query)

	if supports(len(out.heavy), 0.9) {
		out.layer["vstore.patch_p90_ms"] = quantile(out.heavy, 0.9)
	}
	return out
}

// nextOp draws the next patch of the sequence and builds its fragment.
func (p *patchInst) nextOp(b *bench) (op arb.PatchOp, f, kind int) {
	f, kind = p.files.draw(p.rng)
	op.Node = p.files.node(f)
	switch kind {
	case replaceFirst:
		op.Op, op.Node = "replace", op.Node+1
	case insertFirst:
		op.Op = "insert-child"
	case deleteFirst:
		op.Op, op.Node = "delete", op.Node+1
		return op, f, kind
	}
	frag, err := b.c.fragment(p.rng)
	if err != nil {
		panic(err) // tree.Builder over balanced events cannot fail
	}
	op.Tree = frag
	return op, f, kind
}

// apply commits op and keeps the file table in step with the document.
func (p *patchInst) apply(ctx context.Context, b *bench, op arb.PatchOp, f, kind int) *arb.PatchInfo {
	req := b.nextReq()
	root := b.tr.begin("bench.request", -1, req)
	call := b.tr.begin("vstore."+op.Op, root, req)
	info, err := p.sess.Patch(ctx, op)
	b.tr.end(call)
	b.check(err == nil, "patch %s at node %d: %v", op.Op, op.Node, err)
	if err != nil {
		b.tr.end(root)
		return nil
	}
	p.files.applied(f, kind, info.Delta)
	p.patches++
	p.lastAck = info.Version
	b.tr.end(root)
	return info
}

func (p *patchInst) compact(ctx context.Context, b *bench) {
	req := b.nextReq()
	root := b.tr.begin("bench.request", -1, req)
	call := b.tr.begin("vstore.compact", root, req)
	info, err := p.sess.Compact(ctx)
	b.tr.end(call)
	b.check(err == nil, "compact: %v", err)
	if err == nil {
		p.lastAck = info.Version
	}
	b.tr.end(root)
}

// verify closes and reopens the database: the version must be the last
// acknowledged commit, and every pool query must match an in-memory
// session parsed from the reopened session's own XML.
func (p *patchInst) verify(b *bench) {
	if err := p.sess.Close(); err != nil {
		b.check(false, "verify: close: %v", err)
	}
	sess, err := arb.OpenSession(p.base)
	if err != nil {
		b.check(false, "verify: reopen: %v", err)
		p.sess = nil
		return
	}
	p.sess = sess
	b.check(sess.Version() == p.lastAck, "reopened at version %d, last acknowledged commit was %d", sess.Version(), p.lastAck)
	oracle, err := emitOracle(sess)
	if err != nil {
		b.check(false, "verify: %v", err)
		return
	}
	ctx := context.Background()
	for _, q := range p.pool {
		want, err := countOn(ctx, oracle, q)
		if err != nil {
			b.check(false, "verify: in memory: %v", err)
			continue
		}
		pq, err := prepare(sess, q)
		if err != nil {
			b.check(false, "verify: %v", err)
			continue
		}
		b.exec(ctx, nil, pq, want, "verify: "+q.src)
	}
}

func (p *patchInst) nodes() int64 {
	if p.sess == nil {
		return 0
	}
	return p.sess.Len()
}

func (p *patchInst) close() error {
	if p.sess == nil {
		return nil
	}
	return p.sess.Close()
}
