package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"arb"
)

// The coalescer turns concurrent requests into shared-scan batches. The
// two linear scans of a disk execution are query-independent I/O, so M
// concurrent queries folded into batches of up to K cost ~2·⌈M/K⌉ scans
// in aggregate instead of 2·M — the compile-once/query-many engine's
// answer to serving load, with no cross-request coordination beyond the
// batch boundary itself (requests never wait on each other's results,
// only share iterations).
//
// Adaptivity: an idle server answers a lone request immediately — no
// window tax — because a request arriving more than one window after the
// previous one, with execution capacity free and nothing pending, runs
// solo. Any denser arrival pattern opens a gather group that flushes
// when it holds batchMax distinct plans or when the window elapses,
// whichever is first; groups then queue for an execution slot. So the
// batching degree tracks the arrival rate: bursts and saturated slots
// coalesce maximally, sparse traffic pays zero added latency.
//
// The window itself adapts too: waiting is only worth a fraction of the
// scan it amortises, so the coalescer keeps an EWMA of observed execution
// durations and sets the window to a quarter of it, clamped to
// [500µs, 25ms]. Fast in-memory workloads shrink toward the floor
// (near-zero added latency); long disk scans widen the gather so more
// requests share each scan pair.
type coalescer struct {
	sess    *arb.Session
	win     atomic.Int64  // current gather window, nanoseconds
	ewma    atomic.Int64  // smoothed execution duration, nanoseconds
	max     int           // distinct plans per group
	sem     chan struct{} // execution slots (MaxInflight)
	opts    arb.ExecOpts  // Workers/NoPrune template; Stats always set
	profile func(*arb.Profile, int)

	mu         sync.Mutex
	pending    *group    // guarded by: mu
	lastSubmit time.Time // guarded by: mu

	groups, solos, batched, dedups int64 // guarded by: mu
	maxBatch                       int   // guarded by: mu
}

// group is one gather window's worth of requests: distinct plans in
// arrival order, with every duplicate request folded onto its plan's
// slot. After done closes, res/err are immutable and waiters read their
// slot without locks.
type group struct {
	keys  []string
	plans []*arb.PreparedQuery
	slot  map[string]int
	reqs  int

	full    chan struct{} // closed when max distinct plans joined
	done    chan struct{} // closed after execution
	res     []*arb.Result
	err     error
	version uint64    // database version the shared execution read
	later   time.Time // latest member deadline (zero: some member has none)
}

// Auto-tuning bounds: the seed before any execution has been observed and
// the clamp — variables, not constants, only so that the package's tests
// can pin the window (export_test.go) — then the smoothing factor (EWMA
// α = 1/ewmaDiv) and the window-to-scan ratio.
var (
	windowSeed  = 2 * time.Millisecond
	windowFloor = 500 * time.Microsecond
	windowCeil  = 25 * time.Millisecond
)

const (
	windowFrac = 4 // window = ewma/windowFrac
	ewmaDiv    = 5 // α = 0.2
)

func newCoalescer(sess *arb.Session, inflight int, opts arb.ExecOpts, profile func(*arb.Profile, int)) *coalescer {
	opts.Stats = true
	c := &coalescer{
		sess: sess, max: batchMax,
		sem: make(chan struct{}, inflight), opts: opts, profile: profile,
	}
	c.win.Store(int64(windowSeed))
	return c
}

// observe feeds one execution's duration into the window tuner. Updates
// are load/store rather than CAS on purpose: a lost sample under
// contention only delays convergence, and the EWMA absorbs it.
func (c *coalescer) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	e := time.Duration(c.ewma.Load())
	if e == 0 {
		e = d
	} else {
		e += (d - e) / ewmaDiv
	}
	c.ewma.Store(int64(e))
	w := e / windowFrac
	if w < windowFloor {
		w = windowFloor
	}
	if w > windowCeil {
		w = windowCeil
	}
	c.win.Store(int64(w))
}

// submit routes one request: solo on an idle server, otherwise into the
// pending gather group. It blocks until the request's result is ready or
// ctx (the request's own deadline) gives up — the group execution keeps
// going for the other members either way. The returned version is the
// database version the execution read (0 for unversioned sessions and
// for requests that gave up before their group finished): a whole group
// shares one MVCC snapshot, so every coalesced member answers from the
// same version.
func (c *coalescer) submit(ctx context.Context, execCtx context.Context, key string, pq *arb.PreparedQuery) (*arb.Result, int, uint64, error) {
	deadline, hasDeadline := ctx.Deadline()

	c.mu.Lock()
	now := time.Now()
	idle := now.Sub(c.lastSubmit) > time.Duration(c.win.Load())
	c.lastSubmit = now

	if c.pending == nil && idle {
		select {
		case c.sem <- struct{}{}:
			// Idle fast path: capacity is free and nobody is gathering, so
			// this request pays no window latency and runs alone.
			c.solos++
			c.groups++
			c.batched++
			if c.maxBatch < 1 {
				c.maxBatch = 1
			}
			c.mu.Unlock()
			defer func() { <-c.sem }()
			runCtx, cancel := c.memberCtx(execCtx, deadline, hasDeadline)
			defer cancel()
			res, prof, err := pq.Exec(runCtx, c.opts)
			if err != nil {
				return nil, 1, 0, err
			}
			c.profile(prof, 1)
			c.observe(prof.Duration)
			return res, 1, prof.Version, nil
		default:
		}
	}

	g := c.pending
	if g == nil {
		g = &group{slot: map[string]int{}, full: make(chan struct{}), done: make(chan struct{})}
		c.pending = g
		go c.run(g, execCtx)
	}
	i, ok := g.slot[key]
	if !ok {
		i = len(g.plans)
		g.slot[key] = i
		g.keys = append(g.keys, key)
		g.plans = append(g.plans, pq)
		if len(g.plans) == c.max {
			c.pending = nil
			close(g.full)
		}
	} else {
		c.dedups++
	}
	joined := len(g.plans)
	g.reqs++
	if !hasDeadline {
		g.later = time.Time{}
	} else if g.reqs == 1 || (!g.later.IsZero() && deadline.After(g.later)) {
		g.later = deadline
	}
	c.mu.Unlock()

	select {
	case <-g.done:
		if g.err != nil {
			return nil, len(g.plans), 0, g.err
		}
		return g.res[i], len(g.plans), g.version, nil
	case <-ctx.Done():
		// This member's deadline expired first; the shared execution keeps
		// serving the rest of the group (joined is this waiter's view of
		// the group size — the group may still be gathering).
		return nil, joined, 0, ctx.Err()
	}
}

// run is the group's leader: gather until the group is full or the
// window elapses, take an execution slot, run the whole group as one
// shared-scan batch, and wake every waiter.
func (c *coalescer) run(g *group, execCtx context.Context) {
	timer := time.NewTimer(time.Duration(c.win.Load()))
	defer timer.Stop()
	select {
	case <-g.full:
	case <-timer.C:
	}

	c.mu.Lock()
	if c.pending == g {
		c.pending = nil
	}
	n := len(g.plans)
	c.groups++
	c.batched += int64(g.reqs)
	if n > c.maxBatch {
		c.maxBatch = n
	}
	later := g.later
	c.mu.Unlock()

	c.sem <- struct{}{}
	defer func() { <-c.sem }()

	ctx, cancel := c.memberCtx(execCtx, later, !later.IsZero())
	defer cancel()
	defer close(g.done)
	if n == 1 {
		res, prof, err := g.plans[0].Exec(ctx, c.opts)
		if err != nil {
			g.err = err
			return
		}
		c.profile(prof, 1)
		c.observe(prof.Duration)
		g.res = []*arb.Result{res}
		g.version = prof.Version
		return
	}
	pb, err := c.sess.BatchOf(g.plans...)
	if err != nil {
		g.err = err
		return
	}
	res, prof, err := pb.Exec(ctx, c.opts)
	if err != nil {
		g.err = err
		return
	}
	c.profile(prof, n)
	c.observe(prof.Duration)
	g.res = res
	g.version = prof.Version
}

// memberCtx derives the execution context: the server's base context
// (cancelled on Close) bounded by the latest member deadline, so a batch
// never outlives every request that wanted it.
func (c *coalescer) memberCtx(base context.Context, deadline time.Time, has bool) (context.Context, context.CancelFunc) {
	if !has || deadline.IsZero() {
		return base, func() {}
	}
	return context.WithDeadline(base, deadline)
}

// CoalescerStats is the coalescer's corner of the /stats payload.
type CoalescerStats struct {
	Groups     int64   `json:"groups"`          // executions dispatched (solo + batched)
	Solo       int64   `json:"solo"`            // idle fast-path executions
	Requests   int64   `json:"requests"`        // requests routed through groups
	Dedup      int64   `json:"dedup_hits"`      // requests folded onto a duplicate plan
	MaxBatch   int     `json:"max_batch_plans"` // largest distinct-plan group so far
	WindowMS   float64 `json:"window_ms"`       // current gather window
	ScanEWMAMS float64 `json:"scan_ewma_ms"`    // smoothed execution duration feeding the tuner
}

func (c *coalescer) snapshot() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CoalescerStats{
		Groups: c.groups, Solo: c.solos, Requests: c.batched, Dedup: c.dedups, MaxBatch: c.maxBatch,
		WindowMS:   float64(c.win.Load()) / 1e6,
		ScanEWMAMS: float64(c.ewma.Load()) / 1e6,
	}
}
