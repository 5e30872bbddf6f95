package serve

import (
	"fmt"
	"reflect"
	"testing"

	"mto/internal/engine"
	"mto/internal/value"
	"mto/internal/workload"
)

func fakeResult(id string, blocks int) *engine.Result {
	return &engine.Result{
		Query:         id,
		PerTable:      map[string]*engine.TableAccess{"t": {Table: "t", BlocksRead: blocks, TotalBlocks: 10}},
		BlocksRead:    blocks,
		TotalBlocks:   10,
		SurvivingRows: map[string]int{"t": 42},
		Aggregates: []engine.AggValue{
			{Spec: workload.Aggregate{Op: workload.AggSum, Alias: "t", Column: "v"}, Value: value.Int(7)},
			{Spec: workload.Aggregate{Op: workload.AggCount, Alias: "t"}, Value: value.Int(3)},
		},
		Seconds: 1.5,
	}
}

func reqQuery(id string) *workload.Query {
	q := workload.NewQuery(id, workload.TableRef{Table: "t"})
	q.Aggregate(workload.AggSum, "t", "v")
	q.Aggregate(workload.AggCount, "t", "")
	return q
}

// TestCacheHitIsolation: a hit returns a deep copy rewritten for the
// requesting query; mutating it must not reach the cache, and the stored
// entry must not alias the Put argument.
func TestCacheHitIsolation(t *testing.T) {
	c := NewResultCache(64)
	src := fakeResult("orig", 4)
	c.Put("a", 1, "k", src)
	src.SurvivingRows["t"] = 999 // caller mutates after Put
	src.PerTable["t"].BlocksRead = 999

	q := reqQuery("other")
	got, ok := c.Get("a", 1, "k", q)
	if !ok {
		t.Fatal("miss on present key")
	}
	if got.Query != "other" {
		t.Errorf("hit kept original ID %q", got.Query)
	}
	if got.SurvivingRows["t"] != 42 || got.PerTable["t"].BlocksRead != 4 {
		t.Error("Put did not isolate the stored copy from the caller")
	}
	got.SurvivingRows["t"] = -1
	got.Aggregates[0].Value = value.Int(-1)
	again, _ := c.Get("a", 1, "k", q)
	if again.SurvivingRows["t"] != 42 || !reflect.DeepEqual(again.Aggregates[0].Value, value.Int(7)) {
		t.Error("hit handed out an aliased copy")
	}
}

// TestCacheAggregateReorder: a requesting query with permuted aggregate
// declaration order gets values in its own order.
func TestCacheAggregateReorder(t *testing.T) {
	c := NewResultCache(64)
	c.Put("a", 1, "k", fakeResult("orig", 4))
	q := workload.NewQuery("perm", workload.TableRef{Table: "t"})
	q.Aggregate(workload.AggCount, "t", "") // order swapped vs fakeResult
	q.Aggregate(workload.AggSum, "t", "v")
	got, ok := c.Get("a", 1, "k", q)
	if !ok {
		t.Fatal("miss")
	}
	if got.Aggregates[0].Spec.Op != workload.AggCount || got.Aggregates[1].Spec.Op != workload.AggSum {
		t.Errorf("aggregates not in requesting order: %+v", got.Aggregates)
	}
	if !reflect.DeepEqual(got.Aggregates[0].Value, value.Int(3)) || !reflect.DeepEqual(got.Aggregates[1].Value, value.Int(7)) {
		t.Errorf("values did not follow their specs: %+v", got.Aggregates)
	}
}

// TestCacheGenerationKeying: the same normalized query under a different
// generation is a distinct entry, and InvalidateBelow evicts only older
// generations of the named tenant.
func TestCacheGenerationKeying(t *testing.T) {
	c := NewResultCache(64)
	q := reqQuery("q")
	c.Put("a", 1, "k", fakeResult("q", 4))
	c.Put("a", 2, "k", fakeResult("q", 2))
	c.Put("b", 1, "k", fakeResult("q", 9))

	if got, ok := c.Get("a", 1, "k", q); !ok || got.BlocksRead != 4 {
		t.Fatal("gen-1 entry wrong")
	}
	if got, ok := c.Get("a", 2, "k", q); !ok || got.BlocksRead != 2 {
		t.Fatal("gen-2 entry wrong")
	}
	c.InvalidateBelow("a", 2)
	if _, ok := c.Get("a", 1, "k", q); ok {
		t.Error("stale generation survived InvalidateBelow")
	}
	if _, ok := c.Get("a", 2, "k", q); !ok {
		t.Error("current generation evicted")
	}
	if _, ok := c.Get("b", 1, "k", q); !ok {
		t.Error("other tenant's entry evicted")
	}
}

// TestCacheLRUEviction: per-shard capacity evicts the least recently used
// entry, never the recently touched one.
func TestCacheLRUEviction(t *testing.T) {
	c := NewResultCache(cacheShards) // one entry per shard
	q := reqQuery("q")
	// Find two keys in the same shard.
	base := cacheKey{tenant: "a", gen: 1, norm: "k0"}
	s0 := c.shard(base)
	var second string
	for i := 1; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(cacheKey{tenant: "a", gen: 1, norm: k}) == s0 {
			second = k
			break
		}
	}
	if second == "" {
		t.Fatal("no colliding shard key found")
	}
	c.Put("a", 1, "k0", fakeResult("q", 1))
	c.Put("a", 1, second, fakeResult("q", 2))
	if _, ok := c.Get("a", 1, "k0", q); ok {
		t.Error("LRU entry not evicted at capacity")
	}
	if got, ok := c.Get("a", 1, second, q); !ok || got.BlocksRead != 2 {
		t.Error("most recent entry evicted")
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Error("eviction not counted")
	}
}

// TestCacheHitAllocs pins the allocations of one hit on a two-aggregate
// result: the deep copy (the result, its per-table map and entry, the
// survivor map, the aggregate slice) and the aggregate reorder. Matching
// specs renders none of them; rendering cost 20 allocations a hit.
func TestCacheHitAllocs(t *testing.T) {
	const maxAllocs = 9
	c := NewResultCache(64)
	c.Put("a", 1, "k", fakeResult("orig", 4))
	q := reqQuery("other")
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get("a", 1, "k", q); !ok {
			t.Fatal("miss on present key")
		}
	})
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per hit, want at most %d", allocs, maxAllocs)
	}
}
