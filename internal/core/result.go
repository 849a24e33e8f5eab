package core

import (
	"math/bits"
	"sync"

	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Result is the outcome of evaluating a TMNF program over a tree or
// database: which nodes each query predicate selected.
type Result struct {
	prog    *tmnf.Program
	queries []tmnf.Pred
	n       int64
	// sel[qi] is a bitset over preorder node indices.
	sel [][]uint64 // guarded by: mu
	// counts[qi] is the number of selected nodes, maintained eagerly so
	// huge runs can report counts without rescanning bitsets.
	counts []int64 // guarded by: mu
	// mu serialises concurrent MergeWords calls from parallel workers.
	// The single-threaded marking and read paths (mark, MarkMask, Holds,
	// Count, Walk) declare arblint:holds mu instead: they run while one
	// goroutine owns the result — during its single-threaded filling
	// phase or after the parallel workers have been joined.
	mu sync.Mutex
}

// NewResult returns an empty result for evaluating prog over n nodes,
// ready for marking. Exposed so the result cache (internal/rescache) can
// produce the same unified result type as the engine itself.
func NewResult(prog *tmnf.Program, n int64) *Result {
	r := newSelections(len(prog.Queries()), n)
	r.prog, r.queries = prog, prog.Queries()
	return r
}

// newSelections returns empty selections of nq query predicates over n
// nodes: a disk lane marks its members' predicates side by side in one,
// and member splits it up once the run is done.
//
// arblint:holds mu — the fresh result is exclusively owned.
func newSelections(nq int, n int64) *Result {
	r := &Result{n: n, sel: make([][]uint64, nq), counts: make([]int64, nq)}
	words := (n + 63) / 64
	for i := range r.sel {
		r.sel[i] = make([]uint64, words)
	}
	return r
}

// member returns the result of prog, whose query predicates are r's from
// index first on: a view of r's bitsets, not a copy.
//
// arblint:holds mu — the run that filled r has finished.
func (r *Result) member(prog *tmnf.Program, first int) *Result {
	qs := prog.Queries()
	return &Result{prog: prog, queries: qs, n: r.n, sel: r.sel[first : first+len(qs)], counts: r.counts[first : first+len(qs)]}
}

// mark records that query qi selects node v.
//
// arblint:holds mu — marking is single-threaded.
func (r *Result) mark(qi int, v int64) {
	w, b := v/64, uint(v%64)
	if r.sel[qi][w]&(1<<b) == 0 {
		r.sel[qi][w] |= 1 << b
		r.counts[qi]++
	}
}

// MarkMask records all queries in the bitmask (bit i = query i) as
// selecting node v. Not safe for concurrent use; parallel markers should
// accumulate private bitsets and MergeWords them.
//
// arblint:holds mu — marking is single-threaded.
func (r *Result) MarkMask(mask uint64, v int64) {
	for qi := 0; mask != 0; qi++ {
		if mask&1 != 0 {
			r.mark(qi, v)
		}
		mask >>= 1
	}
}

// MergeWords ORs a bitset fragment for query qi — words starting at word
// index w0 — into the result under the result's lock, keeping counts in
// step. Parallel workers accumulate marks into private per-chunk bitsets
// and merge them here, so chunk boundaries sharing a word never race.
func (r *Result) MergeWords(qi int, w0 int64, words []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst := r.sel[qi][w0 : w0+int64(len(words))]
	for i, w := range words {
		if w == 0 {
			continue
		}
		old := dst[i]
		if nw := old | w; nw != old {
			dst[i] = nw
			r.counts[qi] += int64(bits.OnesCount64(nw) - bits.OnesCount64(old))
		}
	}
}

// Queries returns the query predicates the result covers.
func (r *Result) Queries() []tmnf.Pred { return r.queries }

// Len returns the number of nodes of the evaluated tree.
func (r *Result) Len() int64 { return r.n }

// queryIndex locates q among the result's queries.
func (r *Result) queryIndex(q tmnf.Pred) int {
	for i, e := range r.queries {
		if e == q {
			return i
		}
	}
	return -1
}

// Holds reports whether query predicate q selected node v.
//
// arblint:holds mu — reads run after evaluation has completed.
func (r *Result) Holds(q tmnf.Pred, v tree.NodeID) bool {
	qi := r.queryIndex(q)
	if qi < 0 {
		return false
	}
	return r.sel[qi][int64(v)/64]&(1<<(uint(v)%64)) != 0
}

// Count returns the number of nodes selected by q.
//
// arblint:holds mu — reads run after evaluation has completed.
func (r *Result) Count(q tmnf.Pred) int64 {
	qi := r.queryIndex(q)
	if qi < 0 {
		return 0
	}
	return r.counts[qi]
}

// Selected returns the nodes selected by q in preorder. For very large
// results prefer Walk.
func (r *Result) Selected(q tmnf.Pred) []tree.NodeID {
	var out []tree.NodeID
	r.Walk(q, func(v tree.NodeID) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Walk calls f on each node selected by q in preorder until f returns
// false.
//
// arblint:holds mu — reads run after evaluation has completed.
func (r *Result) Walk(q tmnf.Pred, f func(tree.NodeID) bool) {
	qi := r.queryIndex(q)
	if qi < 0 {
		return
	}
	for w, word := range r.sel[qi] {
		for word != 0 {
			b := word & -word
			v := int64(w)*64 + int64(bits.TrailingZeros64(word))
			if v >= r.n || !f(tree.NodeID(v)) {
				return
			}
			word ^= b
		}
	}
}
