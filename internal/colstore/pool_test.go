package colstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mto/internal/block"
)

// fakeBlock builds a snapshot of an nrows-row block holding no column
// pages, which the pool charges exactly 4*nrows bytes.
func fakeBlock(nrows int) *EncodedBlock {
	return &EncodedBlock{Block: &block.Block{Rows: make([]int32, nrows)}, size: 4 * int64(nrows)}
}

// get is a demand visit to k's row IDs alone, loaded by load.
func get(p *Pool, k poolKey, load func() (*EncodedBlock, error)) (*EncodedBlock, error) {
	return p.GetPages(k, nil, false, func(*EncodedBlock) (*EncodedBlock, error) { return load() })
}

func TestPoolZeroCapacityNeverCaches(t *testing.T) {
	p := NewPool(0)
	loads := 0
	load := func() (*EncodedBlock, error) { loads++; return fakeBlock(1), nil }
	k := poolKey{table: "t", gen: 1, id: 0}
	for i := 0; i < 3; i++ {
		if _, err := get(p, k, load); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 3 {
		t.Errorf("loads = %d, want 3 (no caching at capacity 0)", loads)
	}
	hits, misses, evictions := p.Counters()
	if hits != 0 || misses != 3 || evictions != 0 {
		t.Errorf("counters = %d/%d/%d", hits, misses, evictions)
	}
}

func TestPoolHitAndEviction(t *testing.T) {
	// Capacity below 8 bytes collapses to one shard of 7 bytes: a one-row
	// block is 4 bytes, so the second insert evicts the first.
	p := NewPool(7)
	load := func() (*EncodedBlock, error) { return fakeBlock(1), nil }
	k0 := poolKey{table: "t", gen: 1, id: 0}
	k1 := poolKey{table: "t", gen: 1, id: 1}

	get(p, k0, load) // miss, cached
	get(p, k0, load) // hit
	get(p, k1, load) // miss; evicts k0
	if _, _, evictions := p.Counters(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	get(p, k0, load) // miss again (was evicted); evicts k1
	hits, misses, _ := p.Counters()
	if hits != 1 || misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", hits, misses)
	}
}

func TestPoolSingleflight(t *testing.T) {
	p := NewPool(1 << 20)
	var loads atomic.Int64
	load := func() (*EncodedBlock, error) {
		loads.Add(1)
		time.Sleep(20 * time.Millisecond)
		return fakeBlock(1), nil
	}
	k := poolKey{table: "t", gen: 1, id: 0}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if bd, err := get(p, k, load); err != nil || bd == nil {
				t.Errorf("Get: %v", err)
			}
		}()
	}
	wg.Wait()
	if loads.Load() != 1 {
		t.Errorf("loads = %d, want 1 (single-flight)", loads.Load())
	}
	hits, misses, _ := p.Counters()
	if hits+misses != n || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want %d total with 1 miss", hits, misses, n)
	}
}

func TestPoolFailedLoadNotCached(t *testing.T) {
	p := NewPool(1 << 20)
	boom := errors.New("boom")
	loads := 0
	load := func() (*EncodedBlock, error) { loads++; return nil, boom }
	k := poolKey{table: "t", gen: 1, id: 0}
	if _, err := get(p, k, load); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := get(p, k, load); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if loads != 2 {
		t.Errorf("loads = %d, want 2 (errors never cached)", loads)
	}
	// A later successful load replaces the error.
	if _, err := get(p, k, func() (*EncodedBlock, error) { return fakeBlock(1), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := get(p, k, load); err != nil {
		t.Errorf("cached success not served: %v", err)
	}
}

// TestPoolInvalidateBelowRefusesStaleInsert reproduces the race between a
// segment swap and an in-flight load: the load starts against the old
// generation, the swap invalidates mid-load, and without the generation
// floor the finished load would park the dead generation's block in the
// cache until LRU pressure evicts it.
func TestPoolInvalidateBelowRefusesStaleInsert(t *testing.T) {
	p := NewPool(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	gated := func() (*EncodedBlock, error) {
		close(started)
		<-release
		return fakeBlock(1), nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := get(p, poolKey{table: "t", gen: 1, id: 0}, gated); err != nil {
			t.Errorf("gated Get: %v", err)
		}
	}()
	<-started
	p.InvalidateBelow("t", 2) // swap to generation 2 while the load is in flight
	close(release)
	<-done

	if entries, bytes := p.Resident(); entries != 0 || bytes != 0 {
		t.Errorf("stale generation cached after InvalidateBelow: %d entries, %d bytes", entries, bytes)
	}
	// The refused insert must not poison the key either: a re-Get of the
	// old generation reloads (and is again refused), the new generation
	// caches normally.
	loads := 0
	load := func() (*EncodedBlock, error) { loads++; return fakeBlock(1), nil }
	get(p, poolKey{table: "t", gen: 1, id: 0}, load)
	get(p, poolKey{table: "t", gen: 2, id: 0}, load)
	get(p, poolKey{table: "t", gen: 2, id: 0}, load) // hit
	if loads != 2 {
		t.Errorf("loads = %d, want 2 (stale gen uncacheable, current gen cached)", loads)
	}
	if entries, _ := p.Resident(); entries != 1 {
		t.Errorf("resident entries = %d, want 1 (current generation only)", entries)
	}
	if _, _, evictions := p.Counters(); evictions != 0 {
		t.Errorf("invalidation must not count as eviction, got %d", evictions)
	}
}

func TestPoolInvalidateBelowKeepsCurrentGeneration(t *testing.T) {
	p := NewPool(1 << 20)
	loads := 0
	load := func() (*EncodedBlock, error) { loads++; return fakeBlock(1), nil }
	for id := 0; id < 3; id++ {
		get(p, poolKey{table: "t", gen: 1, id: id}, load)
		get(p, poolKey{table: "t", gen: 2, id: id}, load)
	}
	p.InvalidateBelow("t", 2)
	for id := 0; id < 3; id++ {
		get(p, poolKey{table: "t", gen: 2, id: id}, load) // still cached
	}
	if loads != 6 {
		t.Errorf("loads = %d, want 6 (generation 2 survives the floor)", loads)
	}
	if entries, _ := p.Resident(); entries != 3 {
		t.Errorf("resident entries = %d, want 3", entries)
	}
}

func TestPoolInvalidate(t *testing.T) {
	p := NewPool(1 << 20)
	loads := 0
	load := func() (*EncodedBlock, error) { loads++; return fakeBlock(1), nil }
	for id := 0; id < 4; id++ {
		get(p, poolKey{table: "a", gen: 1, id: id}, load)
		get(p, poolKey{table: "b", gen: 1, id: id}, load)
	}
	p.InvalidateBelow("a", 2)
	for id := 0; id < 4; id++ {
		get(p, poolKey{table: "a", gen: 1, id: id}, load) // reload
		get(p, poolKey{table: "b", gen: 1, id: id}, load) // still cached
	}
	if loads != 12 {
		t.Errorf("loads = %d, want 12 (4 a + 4 b + 4 a reloads)", loads)
	}
	if _, _, evictions := p.Counters(); evictions != 0 {
		t.Errorf("InvalidateBelow must not count as eviction, got %d", evictions)
	}
}
