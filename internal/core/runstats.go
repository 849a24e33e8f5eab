package core

import (
	"sync"
	"time"
)

// RunStats is a per-run statistics sink: every evaluation driver that is
// handed one mirrors the work it does — node visits, prune savings,
// phase wall times — into it, and engine views created with ShareTo
// credit it with exactly the transitions and states the run's own cache
// misses computed. Deltas of the engines' shared cumulative Stats
// cannot do this: when executions overlap on one engine, work computed
// by a concurrent run lands in whichever delta observes it. A RunStats
// belongs to one execution, so its totals are deterministic however
// many executions overlap.
//
// All methods are safe for concurrent use (parallel workers of one run
// share the sink) and nil-safe: a nil *RunStats discards everything, so
// drivers mirror unconditionally.
type RunStats struct {
	mu sync.Mutex
	s  Stats // guarded by: mu
}

// Add folds a stats delta into the run.
func (rs *RunStats) Add(o Stats) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.s.Add(o)
	rs.mu.Unlock()
}

// addNodes records n node visits, pruned of them pruned.
func (rs *RunStats) addNodes(n, pruned int64) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.s.Nodes += n
	rs.s.PrunedNodes += pruned
	rs.mu.Unlock()
}

// AddPhaseTimes records one run's phase wall times.
func (rs *RunStats) AddPhaseTimes(p1, p2 time.Duration) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.s.Phase1Time += p1
	rs.s.Phase2Time += p2
	rs.mu.Unlock()
}

// Snapshot returns the statistics accumulated so far.
func (rs *RunStats) Snapshot() Stats {
	if rs == nil {
		return Stats{}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.s
}

// creditNodes records a finished run's node visits and prune savings with
// every engine it ran (once per member: a batch of two engines visits each
// node twice) and with its sink. Drivers call it on success only, so a
// failed or cancelled run credits nothing — it saved nothing either.
func creditNodes(engines []*Engine, rs *RunStats, n int64, plan *PrunePlan) {
	var pruned int64
	if plan != nil {
		pruned = plan.Nodes
	}
	for _, e := range engines {
		e.addNodes(n, pruned)
		rs.addNodes(n, pruned)
	}
}
