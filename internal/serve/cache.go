package serve

import (
	"container/list"
	"hash/fnv"
	"maps"
	"sync"
	"sync/atomic"

	"mto/internal/engine"
	"mto/internal/workload"
)

// ResultCache is a sharded LRU query-result cache keyed on
// (tenant, layout generation, normalized query). The generation in the key
// is the invalidation contract: a tenant's generation is bumped inside the
// same critical section that installs a reorganization, so entries cached
// against the old layout become unreachable the instant the new layout is
// visible — a hit can never serve a result the current layout would not
// produce. InvalidateBelow additionally evicts the unreachable entries
// eagerly so swaps reclaim memory instead of waiting for LRU pressure.
//
// Entries store a private deep copy of the result, and every hit hands out
// a fresh deep copy rewritten for the requesting query (its ID, its
// aggregate declaration order), so cached results are byte-identical to
// fresh execution and callers may mutate what they receive.
type ResultCache struct {
	shards  []cacheShard
	perCap  int // max entries per shard
	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recent; values are *cacheEntry
}

type cacheKey struct {
	tenant string
	gen    uint64
	norm   string
}

type cacheEntry struct {
	key cacheKey
	res *engine.Result
}

const cacheShards = 16

// NewResultCache returns a cache holding at most capacity entries (rounded
// up to a multiple of the shard count; minimum one per shard).
func NewResultCache(capacity int) *ResultCache {
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &ResultCache{shards: make([]cacheShard, cacheShards), perCap: per}
	for i := range c.shards {
		c.shards[i].entries = map[cacheKey]*list.Element{}
	}
	return c
}

func (c *ResultCache) shard(k cacheKey) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(k.tenant))
	h.Write([]byte(k.norm))
	return &c.shards[h.Sum32()%cacheShards]
}

// Get returns a deep copy of the cached result for (tenant, gen, norm),
// rewritten for the requesting query q: Result.Query becomes q.ID and the
// aggregates are restored to q's declaration order (the cache key sorts
// aggregate specs, so two queries differing only in declaration order share
// an entry). Returns false on miss — including the never-expected case
// where the cached aggregate set cannot be matched to q's, which is treated
// as a miss rather than served wrong.
func (c *ResultCache) Get(tenant string, gen uint64, norm string, q *workload.Query) (*engine.Result, bool) {
	k := cacheKey{tenant: tenant, gen: gen, norm: norm}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	s.mu.Unlock()

	out := copyResult(res)
	out.Query = q.ID
	if len(q.Aggregates) > 0 || len(out.Aggregates) > 0 {
		reordered, ok := engine.ReorderAggregates(out.Aggregates, q.Aggregates)
		if !ok {
			c.misses.Add(1)
			return nil, false
		}
		out.Aggregates = reordered
	}
	c.hits.Add(1)
	return out, true
}

// Put stores a deep copy of res under (tenant, gen, norm), evicting the
// shard's least-recently-used entry when full.
func (c *ResultCache) Put(tenant string, gen uint64, norm string, res *engine.Result) {
	k := cacheKey{tenant: tenant, gen: gen, norm: norm}
	s := c.shard(k)
	cp := copyResult(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*cacheEntry).res = cp
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= c.perCap {
		oldest := s.lru.Back()
		if oldest != nil {
			s.lru.Remove(oldest)
			delete(s.entries, oldest.Value.(*cacheEntry).key)
			c.evicted.Add(1)
		}
	}
	s.entries[k] = s.lru.PushFront(&cacheEntry{key: k, res: cp})
}

// InvalidateBelow evicts every entry of the tenant with generation < gen.
// Correctness never depends on it (old generations are unreachable through
// Get once the tenant's generation advances); it reclaims their memory at
// swap time.
func (c *ResultCache) InvalidateBelow(tenant string, gen uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, el := range s.entries {
			if k.tenant == tenant && k.gen < gen {
				s.lru.Remove(el)
				delete(s.entries, k)
				c.evicted.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the current number of cached entries.
func (c *ResultCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Evicted int64 `json:"evicted"`
	Entries int   `json:"entries"`
}

// Stats snapshots the hit/miss/eviction counters.
func (c *ResultCache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Evicted: c.evicted.Load(),
		Entries: c.Len(),
	}
}

// copyResult deep-copies an engine result: the per-table access structs,
// the surviving-rows map, and the aggregate slice including per-group
// values. value.Value instances are immutable and shared.
func copyResult(r *engine.Result) *engine.Result {
	out := *r
	if r.PerTable != nil {
		out.PerTable = make(map[string]*engine.TableAccess, len(r.PerTable))
		for k, v := range r.PerTable {
			ta := *v
			out.PerTable[k] = &ta
		}
	}
	out.SurvivingRows = maps.Clone(r.SurvivingRows)
	if r.Aggregates != nil {
		out.Aggregates = make([]engine.AggValue, len(r.Aggregates))
		copy(out.Aggregates, r.Aggregates)
		for i := range out.Aggregates {
			if g := out.Aggregates[i].Groups; g != nil {
				ng := make([]engine.GroupValue, len(g))
				copy(ng, g)
				out.Aggregates[i].Groups = ng
			}
		}
	}
	return &out
}
