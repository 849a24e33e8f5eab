// Package rescache is the result-cache tier above the plan cache: it
// retains completed, immutable core.Result id-sets keyed by (normalized
// query text, database version), with byte-budgeted LRU eviction, so a
// hot query repeated against an unchanged version is answered in O(1)
// with zero scans.
//
// Entries published from a single-query execution whose program admits a
// label-determined selection summary (core.SelSummary) additionally
// carry a packed (id, label, root) list of their selected nodes. Those
// entries serve as subsumption sources: a miss whose own summary is
// pointwise contained in a cached entry's summary — same version, so
// same document and name table — is answered by re-filtering the cached
// list on the miss's verdicts, in memory, without touching the store.
// The filtered result is inserted back as a derived entry, so the next
// repeat of the narrower query is an exact hit.
//
// Version keying is what makes staleness impossible: executions pin a
// version via Session.acquire, lookups and publishes both happen at the
// pinned version, and an entry for version v can only ever answer a
// request that pinned v. A patch committing mid-flight publishes a new
// version and simply stops matching old entries; eviction prefers
// superseded versions so the budget drains toward the current one.
package rescache

import (
	"container/list"

	"arb/internal/core"
	"arb/internal/guard"
	"arb/internal/tmnf"
	"arb/internal/tree"
)

// Packed id-list layout: bits 0..47 node id, 48..61 label, 62 root flag.
const (
	idBits    = 48
	idMask    = 1<<idBits - 1
	labelMask = 1<<14 - 1
	rootFlag  = 1 << 62
)

// PackID packs one selected node for an entry's subsumption list.
func PackID(v int64, l tree.Label, isRoot bool) uint64 {
	w := uint64(v) | uint64(l&labelMask)<<idBits
	if isRoot {
		w |= rootFlag
	}
	return w
}

// MaxNodes is the largest document a packed id can address; results over
// bigger documents are not cached (far beyond any real .arb database).
const MaxNodes = int64(1) << idBits

// Kind classifies a lookup outcome.
type Kind int

const (
	Miss     Kind = iota
	Hit           // exact (key, version) match
	Subsumed      // answered by re-filtering a superset entry
)

// String names the outcome for profiles and logs.
func (k Kind) String() string {
	switch k {
	case Hit:
		return "hit"
	case Subsumed:
		return "subsumed"
	}
	return "miss"
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`      // exact (key, version) hits
	Subsumed  uint64 `json:"subsumed"`  // misses answered via subsumption
	Misses    uint64 `json:"misses"`    // lookups answered by neither
	Evictions uint64 `json:"evictions"` // entries dropped for the budget
	Rejected  uint64 `json:"rejected"`  // publishes refused by admission
	Entries   int    `json:"entries"`   // resident entries
	Bytes     int64  `json:"bytes"`     // resident bytes (accounted)
	Capacity  int64  `json:"capacity"`  // configured byte budget
}

type entryKey struct {
	key     string
	version uint64
}

type entry struct {
	k     entryKey
	res   *core.Result     // the published, completed, immutable result
	ids   []uint64         // packed selected nodes; nil = exact-hit only
	sum   *core.SelSummary // selection summary; nil = not a subsumption source
	bytes int64
	elem  *list.Element
}

// Cache is a byte-budgeted result cache. All methods are safe for
// concurrent use.
type Cache struct {
	max int64
	t   *guard.Mutex[tables]
}

// tables is a cache's mutable state.
type tables struct {
	bytes   int64
	entries map[entryKey]*entry
	lru     *list.List // front = most recent
	maxVer  uint64     // newest version seen
	stats   Stats
}

// New returns a cache with the given byte budget; maxBytes <= 0 is
// rejected by returning a nil cache (callers treat nil as disabled).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, t: guard.New(tables{entries: make(map[entryKey]*entry), lru: list.New()})}
}

// IDBudget is the largest packed id-list (in entries) worth publishing:
// a list bigger than a quarter of the budget would evict most of the
// cache on arrival, so publishers skip building it.
func (c *Cache) IDBudget() int64 { return c.max / 4 / 8 }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() (s Stats) {
	c.t.Do(func(t *tables) {
		s = t.stats
		s.Entries = len(t.entries)
		s.Bytes = t.bytes
	})
	s.Capacity = c.max
	return s
}

// Lookup answers a query about to execute at a pinned version: an exact
// (key, version) entry wins outright; otherwise, when sum is non-nil, a
// same-version entry whose summary subsumes sum answers by re-filtering
// its packed id list on sum's verdicts (prog and n — the miss's main
// program and the version's node count — shape the rebuilt Result). The
// returned result is shared and must be treated as immutable.
func (c *Cache) Lookup(key string, version uint64, sum *core.SelSummary, prog *tmnf.Program, n int64) (*core.Result, Kind) {
	if c == nil {
		return nil, Miss
	}
	var hit *core.Result
	var src []uint64
	found := false
	c.t.Do(func(t *tables) {
		t.noteVersion(version)
		if e, ok := t.entries[entryKey{key, version}]; ok && e.res.Len() == n {
			t.lru.MoveToFront(e.elem)
			t.stats.Hits++
			hit = e.res
			return
		}
		if sum != nil {
			for _, e := range t.entries {
				if e.k.version == version && e.ids != nil && e.res.Len() == n && core.Subsumes(sum, e.sum) {
					t.lru.MoveToFront(e.elem)
					src, found = e.ids, true
					break
				}
			}
		}
		if found {
			t.stats.Subsumed++
		} else {
			t.stats.Misses++
		}
	})
	if hit != nil {
		return hit, Hit
	}
	if !found {
		return nil, Miss
	}

	// Re-filter outside the lock: packed lists are immutable once
	// published, and the verdicts need no store access — the labels ride
	// in the list. Insert the derived entry so the next repeat of this
	// narrower query is an exact hit.
	res := core.NewResult(prog, n)
	var ids []uint64
	for _, w := range src {
		if sum.Selected(tree.Label(w>>idBits&labelMask), w&rootFlag != 0) {
			ids = append(ids, w)
			res.MarkMask(1, int64(w&idMask))
		}
	}
	c.Put(key, version, res, sum, ids)
	return res, Subsumed
}

// Put publishes a completed result under (key, version). ids and sum
// make the entry a subsumption source and may both be nil (exact-hit
// only). Entries exceeding a quarter of the budget are rejected rather
// than letting one giant result evict everything else.
func (c *Cache) Put(key string, version uint64, res *core.Result, sum *core.SelSummary, ids []uint64) {
	if c == nil || res == nil {
		return
	}
	if ids == nil {
		sum = nil // a summary without its id list cannot source subsumption
	}
	words := (res.Len() + 63) / 64
	bytes := int64(len(res.Queries()))*words*8 + int64(len(ids))*8 + int64(len(key)) + 256
	c.t.Do(func(t *tables) {
		t.noteVersion(version)
		if bytes > c.max/4 {
			t.stats.Rejected++
			return
		}
		k := entryKey{key, version}
		if old, ok := t.entries[k]; ok {
			// Identical key and version means an identical result; keep the
			// resident entry (it may carry ids this publish lacks, or vice
			// versa — prefer whichever has the subsumption list).
			if old.ids == nil && ids != nil {
				t.bytes += int64(len(ids)) * 8
				old.ids, old.sum = ids, sum
				old.bytes += int64(len(ids)) * 8
				t.evict(c.max)
			}
			t.lru.MoveToFront(old.elem)
			return
		}
		e := &entry{k: k, res: res, ids: ids, sum: sum, bytes: bytes}
		e.elem = t.lru.PushFront(e)
		t.entries[k] = e
		t.bytes += bytes
		t.evict(c.max)
	})
}

// noteVersion records a newly observed version, demoting every entry of
// superseded versions to the back of the LRU so eviction drains them
// first — they can only ever answer executions still pinning an old
// snapshot, which end as those snapshots release.
func (t *tables) noteVersion(version uint64) {
	if version <= t.maxVer {
		return
	}
	t.maxVer = version
	var stale []*list.Element
	for el := t.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry).k.version < version {
			stale = append(stale, el)
		}
	}
	for _, el := range stale {
		t.lru.MoveToBack(el)
	}
}

// evict drops LRU-back entries until the budget holds.
func (t *tables) evict(budget int64) {
	for t.bytes > budget {
		el := t.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		t.lru.Remove(el)
		delete(t.entries, e.k)
		t.bytes -= e.bytes
		t.stats.Evictions++
	}
}
