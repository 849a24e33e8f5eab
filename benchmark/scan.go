package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"arb"
	"arb/internal/storage"
)

// scanInst is scan_full (raw container, regex pool) or scan_pruned_z
// (LZ-compressed copy, rare-tag pool): one caller, warm page cache, warm
// automata, a batch Exec after every few scalar Execs.
type scanInst struct {
	compressed bool
	info       storage.ContainerInfo
	h          *dbHandle
	pool       []query
	pqs        []*arb.PreparedQuery
	first      int // pool index of the first of the 8 batch members
	batch      *arb.PreparedBatch
	perBatch   int // scalar Execs between two batch Execs
	want       []int64
	next       int // round-robin position, kept across run calls
}

const batchSize = 8

func setupScan(b *bench, dir string, compressed bool) (instance, error) {
	base := filepath.Join(dir, "c")
	err := b.c.create(base)
	if err != nil {
		return nil, err
	}
	// scan_full: 100 scalar + 20 batch Execs in the issue's mix;
	// scan_pruned_z: 320 scalar, with the batch as its heavy operation.
	s := &scanInst{compressed: compressed, pool: regexPool(b.cfg.seed), perBatch: 5}
	if compressed {
		if s.info, err = storage.CompressInPlace(base, storage.CodecLZ, blockSize); err != nil {
			return nil, err
		}
		s.pool, s.perBatch, s.first = rarePool(), 16, rareTags
	}
	if s.h, err = b.open(base); err != nil {
		return nil, err
	}
	if s.pqs, err = prepareAll(s.h.sess, s.pool); err != nil {
		s.h.close()
		return nil, err
	}
	if s.batch, err = s.h.sess.BatchOf(s.pqs[s.first : s.first+batchSize]...); err != nil {
		s.h.close()
		return nil, err
	}
	// Warm-up: first executions build the automata lazily.
	ctx := context.Background()
	for i, pq := range s.pqs {
		if _, _, err := pq.Exec(ctx, arb.ExecOpts{}); err != nil {
			s.h.close()
			return nil, fmt.Errorf("warm-up %s: %w", s.pool[i].src, err)
		}
	}
	if _, _, err := s.batch.Exec(ctx, arb.ExecOpts{}); err != nil {
		s.h.close()
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return s, nil
}

func (s *scanInst) gate(b *bench, oracle *arb.Session) {
	s.want = b.gateCounts(oracle, s.h, s.pool, s.pqs)
	if s.compressed && b.windows() {
		b.check(s.info.Ratio() >= 1.5, "compress_ratio %.2f < 1.5: the corpus no longer compresses", s.info.Ratio())
	}
}

func (s *scanInst) run(b *bench, d time.Duration, minQuery, minHeavy int) samples {
	ctx := context.Background()
	out := samples{layer: map[string]float64{}}
	read0, skipped0 := b.read, b.skipped
	start := time.Now()
	for time.Since(start) < d || len(out.query) < minQuery || len(out.heavy) < minHeavy {
		if s.next%(s.perBatch+1) == s.perBatch {
			out.heavy = append(out.heavy, s.execBatch(ctx, b))
			out.answers += batchSize
		} else {
			// Scalar slots only, so the pool is walked evenly.
			i := (s.next - s.next/(s.perBatch+1)) % len(s.pqs)
			ms, _, _ := b.exec(ctx, s.h, s.pqs[i], s.want[i], s.pool[i].src)
			out.query = append(out.query, ms)
			out.answers++
		}
		s.next++
	}
	out.wall = time.Since(start)
	if s.compressed {
		out.layer["storage.compress_ratio"] = s.info.Ratio()
	}
	if s.compressed && b.windows() {
		read, skipped := b.read-read0, b.skipped-skipped0
		share := float64(skipped) / float64(read+skipped)
		b.check(share >= 0.8, "skipped_share %.3f < 0.8: the workload no longer prunes", share)
	}
	return out
}

// execBatch times one 8-member batch Exec and checks every member.
func (s *scanInst) execBatch(ctx context.Context, b *bench) float64 {
	req := b.nextReq()
	root := b.tr.begin("bench.request", -1, req)
	call := b.tr.begin("arb.batch_exec", root, req)
	if s.h.rd != nil {
		s.h.rd.cur, s.h.rd.req = call, req
	}
	start := time.Now()
	res, prof, err := s.batch.Exec(ctx, arb.ExecOpts{Stats: true})
	d := time.Since(start)
	b.tr.end(call)
	b.phases(call, prof)
	b.account(prof)
	for j := 0; j < batchSize; j++ {
		if err != nil {
			b.check(false, "batch: %v", err)
			continue
		}
		i := s.first + j
		n := res[j].Count(s.batch.Queries(j)[0])
		b.check(n == s.want[i], "batch member %s: count %d, want %d", s.pool[i].src, n, s.want[i])
	}
	b.tr.end(root)
	return float64(d) / 1e6
}

func (s *scanInst) verify(*bench) {}

func (s *scanInst) nodes() int64 { return s.h.sess.Len() }

func (s *scanInst) close() error { return s.h.close() }
