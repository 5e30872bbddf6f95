package colstore

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Pool is the sharded buffer pool in front of segment reads: a bounded
// cache of blocks with per-shard LRU eviction and single-flight loading,
// so N goroutines missing on the same block trigger exactly one disk read.
// A visit counts one hit when it read nothing (resident, or served by the
// load it waited on) and one miss when it ran a load itself.
//
// An entry is an encoded snapshot of one block (*EncodedBlock): the
// decoded row IDs plus the pages some visit asked for. The block is the
// unit of lookup and eviction, the page the unit of I/O: a visit naming a
// column the entry lacks reads just that page and replaces the entry with a
// wider snapshot (charging the size delta), and eviction drops the whole
// entry.
//
// Capacity is in bytes of cached block data, split evenly across shards.
// A capacity of zero disables caching entirely — every visit runs (or waits
// on) a load — which is the cold-storage configuration the backend
// identity tests replay under. Failed loads are never cached, and a waiter
// whose flight failed (or loaded other columns) runs its own load, so an
// error only ever reaches a visit that asked for the page behind it.
type Pool struct {
	shards []poolShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// poolKey identifies one cached block. The segment generation is part of
// the key so a load racing with a segment swap can only ever insert under
// its own (now unreachable) generation, never serve stale data for the
// new one.
type poolKey struct {
	table string
	gen   uint64
	id    int
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
	key  poolKey
	val  *EncodedBlock
	size int64
}

type poolCall struct {
	done chan struct{}
	val  *EncodedBlock
	err  error
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

// GetPages returns k's encoded snapshot holding at least the pages of cols
// (segment column indexes, or rowIDPage). A resident snapshot that has
// them all is returned as is; otherwise load runs with the resident
// snapshot (nil when there is none) and must return one extended by the
// missing pages, which replaces it. Concurrent visits to one block
// single-flight: at most one load of a key runs at a time.
func (p *Pool) GetPages(k poolKey, cols []int, load func(prev *EncodedBlock) (*EncodedBlock, error)) (*EncodedBlock, error) {
	sh := p.shard(k)
	for {
		sh.mu.Lock()
		var prev *EncodedBlock
		if el, ok := sh.items[k]; ok {
			sh.lru.MoveToFront(el)
			prev = el.Value.(*poolEntry).val
			if prev.covers(cols) {
				sh.mu.Unlock()
				p.hits.Add(1)
				return prev, nil
			}
		}
		if call, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			<-call.done
			if call.err == nil && call.val.covers(cols) {
				p.hits.Add(1)
				return call.val, nil
			}
			continue // that flight did not bring these pages: look again
		}
		call := &poolCall{done: make(chan struct{})}
		sh.inflight[k] = call
		sh.mu.Unlock()

		p.misses.Add(1)
		call.val, call.err = load(prev)

		sh.mu.Lock()
		delete(sh.inflight, k)
		if call.err == nil && sh.capacity > 0 && k.gen >= sh.minGen[k.table] {
			p.evictions.Add(sh.put(k, call.val))
		}
		sh.mu.Unlock()
		close(call.done)
		return call.val, call.err
	}
}

// put caches val under k — replacing the narrower snapshot a load extended,
// charged by the size delta — then evicts from the cold end down to
// capacity, returning the number of entries evicted. Caller holds sh.mu.
func (sh *poolShard) put(k poolKey, val *EncodedBlock) (evicted int64) {
	size := val.size
	if el, ok := sh.items[k]; ok {
		ent := el.Value.(*poolEntry)
		sh.bytes += size - ent.size
		ent.val, ent.size = val, size
		sh.lru.MoveToFront(el)
	} else {
		sh.items[k] = sh.lru.PushFront(&poolEntry{key: k, val: val, size: size})
		sh.bytes += size
	}
	for sh.bytes > sh.capacity && sh.lru.Len() > 0 {
		oldest := sh.lru.Back()
		ent := oldest.Value.(*poolEntry)
		sh.lru.Remove(oldest)
		delete(sh.items, ent.key)
		sh.bytes -= ent.size
		evicted++
	}
	return evicted
}

// InvalidateBelow drops every cached block of the named table whose
// generation is below minGen and raises the table's caching floor, so a
// load racing the generation swap cannot re-insert a superseded entry
// afterwards. Committing a generation calls this with its number: without
// the floor, a visit that captured the old table state before the swap
// would finish its disk read after the sweep and park the dead
// generation's block in the cache until LRU pressure evicts it. Entries
// are dropped, not evicted: the eviction counter tracks capacity pressure
// only.
func (p *Pool) InvalidateBelow(table string, minGen uint64) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if minGen > sh.minGen[table] {
			sh.minGen[table] = minGen
		}
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			ent := el.Value.(*poolEntry)
			if ent.key.table == table && ent.key.gen < minGen {
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
