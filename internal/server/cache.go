package server

import (
	"container/list"

	"arb"
	"arb/internal/guard"
)

// planCache is an LRU cache of compiled query plans keyed by normalized
// query text. A hit hands every request for a hot query the SAME
// PreparedQuery handle, so its lazily built automata warm once and then
// serve all traffic — and because Exec is reentrant, concurrent hits
// never queue behind each other. Eviction only drops the cache's
// reference; executions still holding the handle finish normally.
type planCache struct {
	cap int
	t   *guard.Mutex[planTables]
}

// planTables is a plan cache's mutable state.
type planTables struct {
	ll    *list.List // LRU list, front = most recently used
	items map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key string
	pq  *arb.PreparedQuery
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, t: guard.New(planTables{ll: list.New(), items: make(map[string]*list.Element)})}
}

// get returns the cached plan for key, promoting it to most recent.
func (c *planCache) get(key string) (pq *arb.PreparedQuery, ok bool) {
	c.t.Do(func(t *planTables) {
		var el *list.Element
		if el, ok = t.items[key]; ok {
			t.ll.MoveToFront(el)
			t.hits++
			pq = el.Value.(*cacheEntry).pq
			return
		}
		t.misses++
	})
	return pq, ok
}

// put inserts a freshly compiled plan and returns the canonical handle
// for key: when two requests raced to compile the same cold query, the
// loser adopts the winner's handle so the whole server shares one.
func (c *planCache) put(key string, pq *arb.PreparedQuery) (canon *arb.PreparedQuery) {
	c.t.Do(func(t *planTables) {
		if el, ok := t.items[key]; ok {
			t.ll.MoveToFront(el)
			canon = el.Value.(*cacheEntry).pq
			return
		}
		t.items[key] = t.ll.PushFront(&cacheEntry{key: key, pq: pq})
		for t.ll.Len() > c.cap {
			last := t.ll.Back()
			t.ll.Remove(last)
			delete(t.items, last.Value.(*cacheEntry).key)
			t.evictions++
		}
		canon = pq
	})
	return canon
}

// CacheStats is the plan cache's corner of the /stats payload.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (c *planCache) snapshot() (cs CacheStats) {
	c.t.Do(func(t *planTables) {
		cs = CacheStats{
			Size: t.ll.Len(), Capacity: c.cap,
			Hits: t.hits, Misses: t.misses, Evictions: t.evictions,
		}
	})
	return cs
}
