package colstore

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Pool is the sharded buffer pool in front of segment reads: a bounded
// cache of blocks with per-shard LRU eviction and single-flight loading,
// so N goroutines missing on the same block trigger exactly one disk read
// (the leader counts the miss; the waiters count hits).
//
// Entries come in two forms, keyed separately: fully decoded blocks
// (*BlockData, what ReadBlock returns) and raw encoded pages (*EncodedBlock,
// what scans and folds run over). Both live under the same byte budget.
//
// Capacity is in bytes of cached block data, split evenly across shards.
// A capacity of zero disables caching entirely — every Get runs (or waits
// on) a load — which is the cold-storage configuration the backend
// identity tests replay under. Failed loads are never cached.
//
// Prefetch loads (readahead workers) use the same single-flight machinery
// but never block on an in-flight load, never count cache hits or misses,
// and mark the entries they insert; a later demand read that consumes a
// prefetched entry (or joins a prefetch-initiated load) counts one
// ReadaheadHit.
type Pool struct {
	shards []poolShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	prefetched    atomic.Int64
	readaheadHits atomic.Int64
}

// poolForm distinguishes the two cacheable representations of a block.
type poolForm uint8

const (
	formDecoded poolForm = iota // *BlockData
	formEncoded                 // *EncodedBlock
)

// poolKey identifies one cached block. The segment generation is part of
// the key so a load racing with a segment swap can only ever insert under
// its own (now unreachable) generation, never serve stale data for the
// new one.
type poolKey struct {
	table string
	gen   uint64
	id    int
	form  poolForm
}

type poolShard struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	lru      *list.List // front = most recently used; values are *poolEntry
	items    map[poolKey]*list.Element
	inflight map[poolKey]*poolCall
	// minGen is the lowest cacheable generation per table. A load that
	// started against a generation below the floor (because a segment swap
	// raced it) finishes normally but is refused insertion, so superseded
	// generations can never re-enter the cache after InvalidateBelow.
	minGen map[string]uint64
}

type poolEntry struct {
	key        poolKey
	val        any
	size       int64
	prefetched bool // inserted by readahead and not yet touched by a demand read
}

type poolCall struct {
	done     chan struct{}
	val      any
	err      error
	prefetch bool // load initiated by a readahead worker
	touched  bool // a demand read joined this prefetch load (guarded by shard mu)
}

const defaultPoolShards = 8

// NewPool returns a pool holding at most capacityBytes of cached block
// data. capacityBytes <= 0 disables caching (loads still single-flight).
func NewPool(capacityBytes int64) *Pool {
	nshards := defaultPoolShards
	per := int64(0)
	if capacityBytes > 0 {
		per = capacityBytes / int64(nshards)
		if per == 0 { // tiny cache: one shard so the capacity isn't rounded away
			nshards = 1
			per = capacityBytes
		}
	}
	p := &Pool{shards: make([]poolShard, nshards)}
	for i := range p.shards {
		p.shards[i] = poolShard{
			capacity: per,
			lru:      list.New(),
			items:    make(map[poolKey]*list.Element),
			inflight: make(map[poolKey]*poolCall),
			minGen:   make(map[string]uint64),
		}
	}
	return p
}

func (p *Pool) shard(k poolKey) *poolShard {
	h := fnv.New32a()
	h.Write([]byte(k.table))
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(k.id), byte(k.id>>8), byte(k.id>>16), byte(k.id>>24)
	h.Write(b[:])
	return &p.shards[h.Sum32()%uint32(len(p.shards))]
}

// memSize estimates the decoded in-memory footprint of a block, the unit
// the pool's byte budget is charged in.
func memSize(bd *BlockData) int64 {
	size := int64(len(bd.Block.Rows)) * 4
	for _, c := range bd.Cols {
		size += int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Nulls))
		for _, s := range c.Strs {
			size += int64(len(s)) + 16
		}
	}
	return size
}

// encSize estimates the in-memory footprint of an encoded block: the raw
// page payloads plus the decoded row IDs.
func encSize(eb *EncodedBlock) int64 {
	size := int64(len(eb.Block.Rows)) * 4
	for _, c := range eb.Cols {
		size += int64(len(c))
	}
	return size
}

// Get returns the cached decoded block for k, or runs load (at most once
// across concurrent callers) and caches its result. Failed loads are not
// cached and their error is returned to the leader and every waiter.
// k.form must be formDecoded.
func (p *Pool) Get(k poolKey, load func() (*BlockData, error)) (*BlockData, error) {
	v, err := p.acquire(k, false, func() (any, int64, error) {
		bd, err := load()
		if err != nil {
			return nil, 0, err
		}
		return bd, memSize(bd), nil
	})
	if err != nil || v == nil {
		return nil, err
	}
	return v.(*BlockData), nil
}

// GetEncoded is Get for the encoded-page form. k.form must be formEncoded.
func (p *Pool) GetEncoded(k poolKey, load func() (*EncodedBlock, error)) (*EncodedBlock, error) {
	v, err := p.acquire(k, false, func() (any, int64, error) {
		eb, err := load()
		if err != nil {
			return nil, 0, err
		}
		return eb, encSize(eb), nil
	})
	if err != nil || v == nil {
		return nil, err
	}
	return v.(*EncodedBlock), nil
}

// GetPrefetch is the readahead variant of Get/GetEncoded: it returns
// immediately when the block is already cached or its load is in flight,
// never counts cache hits or misses, and marks the entry it inserts so the
// first demand read can be attributed to readahead. Load errors are
// swallowed (never cached); the demand read re-surfaces them.
func (p *Pool) GetPrefetch(k poolKey, load func() (any, int64, error)) {
	p.acquire(k, true, load) //nolint:errcheck // best-effort by design
}

func (p *Pool) acquire(k poolKey, prefetch bool, load func() (any, int64, error)) (any, error) {
	sh := p.shard(k)
	sh.mu.Lock()
	if el, ok := sh.items[k]; ok {
		ent := el.Value.(*poolEntry)
		sh.lru.MoveToFront(el)
		if !prefetch {
			if ent.prefetched {
				ent.prefetched = false
				p.readaheadHits.Add(1)
			}
			sh.mu.Unlock()
			p.hits.Add(1)
			return ent.val, nil
		}
		sh.mu.Unlock()
		return ent.val, nil
	}
	if call, ok := sh.inflight[k]; ok {
		if prefetch {
			sh.mu.Unlock()
			return nil, nil // someone is already loading it; readahead's job is done
		}
		joinedPrefetch := call.prefetch && !call.touched
		if call.prefetch {
			call.touched = true
		}
		sh.mu.Unlock()
		<-call.done
		if call.err != nil {
			p.misses.Add(1)
			return nil, call.err
		}
		p.hits.Add(1)
		if joinedPrefetch {
			p.readaheadHits.Add(1)
		}
		return call.val, nil
	}
	call := &poolCall{done: make(chan struct{}), prefetch: prefetch}
	sh.inflight[k] = call
	sh.mu.Unlock()

	if !prefetch {
		p.misses.Add(1)
	}
	var size int64
	call.val, size, call.err = load()

	sh.mu.Lock()
	delete(sh.inflight, k)
	if call.err == nil && prefetch {
		p.prefetched.Add(1)
	}
	if call.err == nil && sh.capacity > 0 && k.gen >= sh.minGen[k.table] {
		el := sh.lru.PushFront(&poolEntry{
			key: k, val: call.val, size: size,
			// A demand read that already joined this load consumed the
			// readahead; only an untouched prefetch result stays marked.
			prefetched: prefetch && !call.touched,
		})
		sh.items[k] = el
		sh.bytes += size
		for sh.bytes > sh.capacity && sh.lru.Len() > 0 {
			oldest := sh.lru.Back()
			ent := oldest.Value.(*poolEntry)
			sh.lru.Remove(oldest)
			delete(sh.items, ent.key)
			sh.bytes -= ent.size
			p.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	close(call.done)
	return call.val, call.err
}

// Invalidate drops every cached block of the named table (all generations
// and both forms). Entries are dropped, not evicted: the eviction counter
// tracks capacity pressure only.
func (p *Pool) Invalidate(table string) {
	p.invalidate(table, func(gen uint64) bool { return true }, 0)
}

// InvalidateBelow drops every cached block of the named table whose
// generation is below minGen and raises the table's caching floor, so a
// load racing the generation swap cannot re-insert a superseded entry
// afterwards. Segment swaps call this with the new generation: without the
// floor, a Get that captured the old table state before the swap would
// finish its disk read after Invalidate's sweep and park the dead
// generation's block in the cache until LRU pressure evicts it.
func (p *Pool) InvalidateBelow(table string, minGen uint64) {
	p.invalidate(table, func(gen uint64) bool { return gen < minGen }, minGen)
}

func (p *Pool) invalidate(table string, drop func(gen uint64) bool, floor uint64) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if floor > sh.minGen[table] {
			sh.minGen[table] = floor
		}
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			ent := el.Value.(*poolEntry)
			if ent.key.table == table && drop(ent.key.gen) {
				sh.lru.Remove(el)
				delete(sh.items, ent.key)
				sh.bytes -= ent.size
			}
			el = next
		}
		sh.mu.Unlock()
	}
}

// Resident returns the number of cached entries and their total cached
// bytes across all shards (a point-in-time snapshot).
func (p *Pool) Resident() (entries int, bytes int64) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		entries += sh.lru.Len()
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return entries, bytes
}

// Counters returns the cumulative hit/miss/eviction counts.
func (p *Pool) Counters() (hits, misses, evictions int64) {
	return p.hits.Load(), p.misses.Load(), p.evictions.Load()
}

// PrefetchCounters returns the cumulative readahead counts: blocks loaded
// by prefetch and demand reads served by readahead.
func (p *Pool) PrefetchCounters() (prefetched, readaheadHits int64) {
	return p.prefetched.Load(), p.readaheadHits.Load()
}
