package core

import "arb/internal/guard"

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
	s guard.Mutex[Stats]
}

// Add folds a stats delta into the run.
func (rs *RunStats) Add(o Stats) {
	if rs == nil {
		return
	}
	rs.s.Do(func(s *Stats) { s.Add(o) })
}

// Snapshot returns the statistics accumulated so far.
func (rs *RunStats) Snapshot() (s Stats) {
	if rs == nil {
		return Stats{}
	}
	rs.s.Do(func(v *Stats) { s = *v })
	return s
}

// creditRun records a finished run's node visits and prune savings with
// every engine it ran (once per member: a batch of two engines visits each
// node twice) and with its sink, and its phase wall times (agg) with each
// engine and once with the sink. The driver calls it on success only, so a
// failed or cancelled run credits nothing — it saved nothing either.
func creditRun(engines []*Engine, rs *RunStats, n int64, plan *PrunePlan, agg Stats) {
	var pruned int64
	if plan != nil {
		pruned = plan.Nodes
	}
	for _, e := range engines {
		e.addRun(n, pruned, agg.Phase1Time, agg.Phase2Time)
	}
	rs.Add(Stats{
		Nodes:       n * int64(len(engines)),
		PrunedNodes: pruned * int64(len(engines)),
		Phase1Time:  agg.Phase1Time,
		Phase2Time:  agg.Phase2Time,
	})
}
