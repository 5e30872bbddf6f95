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

// fakePages is a page load over a three-column block of one row: prev plus
// a 4-byte page for each of cols it lacks, so a snapshot's size is 4
// (row IDs) + 4 per page held.
func fakePages(prev *EncodedBlock, cols ...int) *EncodedBlock {
	eb := &EncodedBlock{Block: &block.Block{Rows: make([]int32, 1)}, Cols: make([][]byte, 3), size: 4}
	if prev != nil {
		eb.Block, eb.size = prev.Block, prev.size
		copy(eb.Cols, prev.Cols)
	}
	for _, ci := range cols {
		if eb.Cols[ci] == nil {
			eb.Cols[ci] = make([]byte, 4)
			eb.size += 4
		}
	}
	return eb
}

// loadCols is the loader a visit to cols passes the pool.
func loadCols(cols ...int) func(*EncodedBlock) (*EncodedBlock, error) {
	return func(prev *EncodedBlock) (*EncodedBlock, error) { return fakePages(prev, cols...), nil }
}

// get is a demand visit to k's row IDs alone, loaded by load.
func get(p *Pool, k poolKey, load func() (*EncodedBlock, error)) (*EncodedBlock, error) {
	return p.GetPages(k, nil, func(*EncodedBlock) (*EncodedBlock, error) { return load() })
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

// TestPoolWidensResidentSnapshot: a visit to a column the resident entry
// lacks is handed that snapshot, reads only the missing page, and the entry
// is recharged by the size delta.
func TestPoolWidensResidentSnapshot(t *testing.T) {
	p := NewPool(1 << 20)
	k := poolKey{table: "t", gen: 1, id: 0}
	if _, err := p.GetPages(k, []int{0}, loadCols(0)); err != nil {
		t.Fatal(err)
	}
	eb, err := p.GetPages(k, []int{0, 2}, func(prev *EncodedBlock) (*EncodedBlock, error) {
		if prev == nil || prev.Cols[0] == nil {
			t.Error("widening load was not handed the resident snapshot")
		}
		return fakePages(prev, 2), nil
	})
	if err != nil || eb.Cols[0] == nil || eb.Cols[2] == nil {
		t.Fatalf("widening GetPages: %v", err)
	}
	if entries, bytes := p.Resident(); entries != 1 || bytes != 12 {
		t.Errorf("resident = %d entries, %d bytes, want 1, 12 (row IDs + two pages)", entries, bytes)
	}
	if _, err := p.GetPages(k, []int{2}, func(*EncodedBlock) (*EncodedBlock, error) {
		t.Error("load ran for a page the widened snapshot holds")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := p.Counters(); hits != 1 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", hits, misses)
	}
}

// TestPoolFailedPageLoadNotCached: a failed load caches nothing, and a
// failed widening leaves the resident snapshot as it was.
func TestPoolFailedPageLoadNotCached(t *testing.T) {
	p := NewPool(1 << 20)
	k := poolKey{table: "t", gen: 1, id: 0}
	boom := errors.New("boom")
	fail := func(*EncodedBlock) (*EncodedBlock, error) { return nil, boom }
	if _, err := p.GetPages(k, []int{1}, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if entries, bytes := p.Resident(); entries != 0 || bytes != 0 {
		t.Fatalf("failed load cached: %d entries, %d bytes", entries, bytes)
	}
	if eb, err := p.GetPages(k, []int{1}, loadCols(1)); err != nil || eb == nil {
		t.Fatalf("recovery load: %v", err)
	}
	if _, err := p.GetPages(k, []int{1, 2}, fail); !errors.Is(err, boom) {
		t.Fatalf("widening err = %v, want boom", err)
	}
	if eb, err := p.GetPages(k, []int{1}, fail); err != nil || eb.Cols[1] == nil || eb.Cols[2] != nil {
		t.Errorf("resident snapshot disturbed by a failed widening: %v", err)
	}
	if _, bytes := p.Resident(); bytes != 8 {
		t.Errorf("resident bytes = %d, want 8 (row IDs + one page)", bytes)
	}
}

// TestPoolDemandJoinsInflightLoad: a visit to the pages an in-flight load
// is bringing in joins it (a hit, no load of its own); a visit to another
// column waits the flight out, then reads only its own page on top of what
// the flight cached.
func TestPoolDemandJoinsInflightLoad(t *testing.T) {
	p := NewPool(1 << 20)
	k := poolKey{table: "t", gen: 1, id: 0}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.GetPages(k, []int{0}, func(prev *EncodedBlock) (*EncodedBlock, error) {
			close(started)
			<-release
			return fakePages(prev, 0), nil
		}); err != nil {
			t.Errorf("gated GetPages: %v", err)
		}
	}()
	<-started
	wg.Add(2)
	go func() {
		defer wg.Done()
		eb, err := p.GetPages(k, []int{0}, func(*EncodedBlock) (*EncodedBlock, error) {
			t.Error("load ran instead of joining the in-flight one")
			return fakePages(nil, 0), nil
		})
		if err != nil || eb == nil || eb.Cols[0] == nil {
			t.Errorf("joined GetPages: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		eb, err := p.GetPages(k, []int{1}, func(prev *EncodedBlock) (*EncodedBlock, error) {
			if prev == nil || prev.Cols[0] == nil {
				t.Error("load after the flight was not handed the flight's snapshot")
			}
			return fakePages(prev, 1), nil
		})
		if err != nil || eb.Cols[0] == nil || eb.Cols[1] == nil {
			t.Errorf("widening GetPages: %v", err)
		}
	}()
	// Give the visits a moment to register as waiters, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if hits, misses, _ := p.Counters(); hits != 1 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2 (one joined, two loads)", hits, misses)
	}
	if _, bytes := p.Resident(); bytes != 12 {
		t.Errorf("resident bytes = %d, want 12 (row IDs + two pages)", bytes)
	}
}
