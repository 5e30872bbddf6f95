package colstore

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
)

// --- pool-level prefetch semantics (deterministic, synchronous) ---

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

func TestPoolPrefetchCounters(t *testing.T) {
	p := NewPool(1 << 20)
	k := poolKey{table: "t", gen: 1, id: 0}
	p.GetPages(k, []int{0}, true, loadCols(0))

	if pf, ra := p.PrefetchCounters(); pf != 1 || ra != 0 {
		t.Fatalf("after prefetch: prefetched/readaheadHits = %d/%d, want 1/0", pf, ra)
	}
	if hits, misses, _ := p.Counters(); hits != 0 || misses != 0 {
		t.Fatalf("prefetch loads must not count hits/misses, got %d/%d", hits, misses)
	}

	// First demand read consumes the readahead; the second is a plain hit.
	load := func(*EncodedBlock) (*EncodedBlock, error) {
		t.Fatal("demand load ran despite prefetch")
		return nil, nil
	}
	p.GetPages(k, []int{0}, false, load)
	p.GetPages(k, []int{0}, false, load)
	if pf, ra := p.PrefetchCounters(); pf != 1 || ra != 1 {
		t.Errorf("readahead hit counted %d times, want 1 (prefetched %d)", ra, pf)
	}
	if hits, _, _ := p.Counters(); hits != 2 {
		t.Errorf("demand hits = %d, want 2", hits)
	}

	// Prefetching already-resident pages is a no-op on every counter;
	// prefetching one more column of the block loads just that page.
	p.GetPages(k, []int{0}, true, load)
	if pf, _ := p.PrefetchCounters(); pf != 1 {
		t.Errorf("prefetch of cached pages counted, prefetched = %d", pf)
	}
	p.GetPages(k, []int{0, 2}, true, func(prev *EncodedBlock) (*EncodedBlock, error) {
		if prev == nil || prev.Cols[0] == nil {
			t.Error("widening prefetch was not handed the resident snapshot")
		}
		return fakePages(prev, 0, 2), nil
	})
	if _, bytes := p.Resident(); bytes != 12 {
		t.Errorf("resident bytes = %d, want 12 (row IDs + two pages)", bytes)
	}
	p.GetPages(k, []int{2}, false, load)
	if pf, ra := p.PrefetchCounters(); pf != 2 || ra != 2 {
		t.Errorf("after widening prefetch: prefetched/readaheadHits = %d/%d, want 2/2", pf, ra)
	}
}

func TestPoolPrefetchFailedLoadNotCached(t *testing.T) {
	p := NewPool(1 << 20)
	k := poolKey{table: "t", gen: 1, id: 0}
	boom := errors.New("boom")
	fail := func(*EncodedBlock) (*EncodedBlock, error) { return nil, boom }
	p.GetPages(k, []int{1}, true, fail)

	if pf, _ := p.PrefetchCounters(); pf != 0 {
		t.Errorf("failed prefetch counted as prefetched (%d)", pf)
	}
	if entries, bytes := p.Resident(); entries != 0 || bytes != 0 {
		t.Fatalf("failed prefetch cached: %d entries, %d bytes", entries, bytes)
	}
	// The demand read re-runs the load and surfaces its own result.
	if _, err := p.GetPages(k, []int{1}, false, fail); !errors.Is(err, boom) {
		t.Fatalf("demand err = %v, want boom", err)
	}
	eb, err := p.GetPages(k, []int{1}, false, loadCols(1))
	if err != nil || eb == nil {
		t.Fatalf("recovery load: %v", err)
	}
	if _, ra := p.PrefetchCounters(); ra != 0 {
		t.Errorf("demand loads after failed prefetch counted as readahead hits (%d)", ra)
	}
	// A failed widening leaves the resident snapshot as it was.
	if _, err := p.GetPages(k, []int{1, 2}, false, fail); !errors.Is(err, boom) {
		t.Fatalf("widening err = %v, want boom", err)
	}
	if eb, err := p.GetPages(k, []int{1}, false, fail); err != nil || eb.Cols[2] != nil {
		t.Errorf("resident snapshot disturbed by a failed widening: %v", err)
	}
}

// TestPoolDemandJoinsInflightPrefetch: a demand read of pages a readahead
// load is bringing in joins it (one hit, one readahead hit, no read); a
// demand read of another column waits the flight out, then reads only its
// own page on top of what the flight cached.
func TestPoolDemandJoinsInflightPrefetch(t *testing.T) {
	p := NewPool(1 << 20)
	k := poolKey{table: "t", gen: 1, id: 0}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.GetPages(k, []int{0}, true, func(prev *EncodedBlock) (*EncodedBlock, error) {
			close(started)
			<-release
			return fakePages(prev, 0), nil
		})
	}()
	<-started
	wg.Add(2)
	go func() {
		defer wg.Done()
		eb, err := p.GetPages(k, []int{0}, false, func(*EncodedBlock) (*EncodedBlock, error) {
			t.Error("demand load ran instead of joining the prefetch flight")
			return fakePages(nil, 0), nil
		})
		if err != nil || eb == nil {
			t.Errorf("joined GetPages: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		eb, err := p.GetPages(k, []int{1}, false, func(prev *EncodedBlock) (*EncodedBlock, error) {
			if prev == nil || prev.Cols[0] == nil {
				t.Error("load after the flight was not handed the flight's snapshot")
			}
			return fakePages(prev, 1), nil
		})
		if err != nil || eb.Cols[0] == nil || eb.Cols[1] == nil {
			t.Errorf("widening GetPages: %v", err)
		}
	}()
	// Give the demand reads a moment to register as waiters, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if _, ra := p.PrefetchCounters(); ra != 1 {
		t.Errorf("demand reads joining a prefetch flight: readaheadHits = %d, want 1", ra)
	}
	if hits, misses, _ := p.Counters(); hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// The joined demand read consumed the readahead; the cached entry must
	// not be double-counted by the next visit.
	p.GetPages(k, []int{0, 1}, false, loadCols(0, 1))
	if _, ra := p.PrefetchCounters(); ra != 1 {
		t.Errorf("readahead hit double-counted (%d)", ra)
	}
}

// --- store-level readahead (async workers, real segments) ---

// waitStats polls the store until cond holds or the deadline passes,
// returning the last observed stats either way.
func waitStats(t *testing.T, s *Store, cond func(block.Stats) bool) block.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// scanOf compiles a scan over the fixture table that reads the named
// columns' pages (i_for and s_dict when none are given): the handle whose
// Prefetch queues readahead of those pages and whose ScanBlock is the
// demand read that consumes it.
func scanOf(t *testing.T, s *Store, cols ...string) *TableScan {
	t.Helper()
	if len(cols) == 0 {
		cols = []string{"i_for", "s_dict"}
	}
	var leaves []predicate.Predicate
	for _, c := range cols {
		switch c[0] {
		case 'i':
			leaves = append(leaves, predicate.NewComparison(c, predicate.Gt, value.Int(150)))
		case 'f':
			leaves = append(leaves, predicate.NewComparison(c, predicate.Lt, value.Float(20)))
		default:
			leaves = append(leaves, predicate.NewLike(c, "v0%"))
		}
	}
	scan, _ := s.CompileScan("sc", []predicate.Predicate{predicate.NewAnd(leaves...)}).(*TableScan)
	if scan == nil || len(scan.touched) != len(cols) {
		t.Fatalf("CompileScan over %v: %+v", cols, scan)
	}
	return scan
}

// demandRead is the scan's demand read of block id's encoded pages.
func demandRead(t *testing.T, scan *TableScan, id int) *EncodedBlock {
	t.Helper()
	eb, err := scan.store.encodedBlock(scan.table, scan.st, id, scan.touched, false)
	if err != nil {
		t.Fatal(err)
	}
	return eb
}

func TestStoreReadaheadIdentity(t *testing.T) {
	tab := scanTable(t, 200)
	groups := interleavedGroups(200, 4)

	// Baseline: no prefetch, demand reads only.
	plain := scanOf(t, newScanStore(t, tab, groups, 1<<20))
	want := make([]*EncodedBlock, plain.st.seg.NumBlocks())
	for id := range want {
		want[id] = demandRead(t, plain, id)
	}

	s := newScanStore(t, tab, groups, 1<<20)
	scan := scanOf(t, s)
	nb := s.NumBlocks("sc")
	ids := make([]int, nb)
	for i := range ids {
		ids[i] = i
	}
	scan.Prefetch(ids)
	st := waitStats(t, s, func(st block.Stats) bool { return st.Prefetched >= int64(nb) })
	if st.Prefetched != int64(nb) {
		t.Fatalf("prefetched = %d, want %d", st.Prefetched, nb)
	}
	for id := 0; id < nb; id++ {
		got := demandRead(t, scan, id)
		if !reflect.DeepEqual(got.Cols, want[id].Cols) || !reflect.DeepEqual(got.Block.Rows, want[id].Block.Rows) {
			t.Fatalf("block %d: prefetched data differs from demand read", id)
		}
	}
	st = s.Stats()
	if st.ReadaheadHits != int64(nb) {
		t.Errorf("readahead hits = %d, want %d (every demand read served by prefetch)", st.ReadaheadHits, nb)
	}
	if st.CacheMisses != 0 {
		t.Errorf("cache misses = %d, want 0 (all blocks were prefetched)", st.CacheMisses)
	}
}

func TestStorePrefetchNoopWithoutCache(t *testing.T) {
	tab := scanTable(t, 100)
	s := newScanStore(t, tab, [][]int32{seqRows(100)}, 0)
	scanOf(t, s).Prefetch([]int{0})
	// cacheBytes == 0 means prefetch must not even start workers; give a
	// moment for any (buggy) async load to land, then check nothing did.
	time.Sleep(20 * time.Millisecond)
	if st := s.Stats(); st.Prefetched != 0 || st.BytesRead != 0 {
		t.Errorf("prefetch with no cache did I/O: %+v", st)
	}
	if s.pf.started {
		t.Error("prefetch workers started despite cacheBytes == 0")
	}
}

func TestStorePrefetchOutOfRangeIDs(t *testing.T) {
	tab := scanTable(t, 100)
	s := newScanStore(t, tab, [][]int32{seqRows(100)}, 1<<20)
	scanOf(t, s).Prefetch([]int{-5, 0, 999})
	st := waitStats(t, s, func(st block.Stats) bool { return st.Prefetched >= 1 })
	if st.Prefetched != 1 {
		t.Errorf("prefetched = %d, want 1 (out-of-range ids skipped)", st.Prefetched)
	}
}

// TestStorePrefetchEvictionChurn hammers a cache far smaller than the
// segment with concurrent prefetches and demand reads: every demand read
// must still return correct data, and nothing may deadlock while workers
// insert-and-evict under the shard locks. Run with -race.
func TestStorePrefetchEvictionChurn(t *testing.T) {
	tab := scanTable(t, 400)
	groups := interleavedGroups(400, 8)
	// ~50-row blocks decode to a few KiB each; 4KiB keeps only a block or
	// two resident so prefetch inserts constantly evict.
	s := newScanStore(t, tab, groups, 4<<10)
	nb := s.NumBlocks("sc")
	ids := make([]int, nb)
	for i := range ids {
		ids[i] = i
	}
	// Handles over different column subsets widen and re-read each other's
	// entries as the pool churns.
	scans := []*TableScan{scanOf(t, s), scanOf(t, s, "i_for"), scanOf(t, s, "s_raw", "f")}
	want := make([]*EncodedBlock, nb)
	for id := range want {
		want[id] = demandRead(t, scanOf(t, s, "i_for", "s_dict", "s_raw", "f"), id)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		scan := scans[g%len(scans)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				scan.Prefetch(ids)
			}
		}()
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := 0; i < nb; i++ {
					id := (i + seed) % nb
					got, err := scan.store.encodedBlock(scan.table, scan.st, id, scan.touched, false)
					if err != nil {
						t.Errorf("demand read: %v", err)
						return
					}
					if !reflect.DeepEqual(got.Block.Rows, want[id].Block.Rows) {
						t.Errorf("block %d: wrong rows under churn", id)
						return
					}
					for _, ci := range scan.touched {
						if !reflect.DeepEqual(got.Cols[ci], want[id].Cols[ci]) {
							t.Errorf("block %d column %d: wrong page under churn", id, ci)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreCloseDuringPrefetch closes the store while readahead tasks are
// still queued: shutdown must stop workers before any segment file closes,
// so no worker ever reads a closed file. Run with -race.
func TestStoreCloseDuringPrefetch(t *testing.T) {
	tab := scanTable(t, 400)
	groups := interleavedGroups(400, 8)
	tl, err := block.NewTableLayout(tab, groups, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		s, err := NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SetLayout("sc", tl); err != nil {
			t.Fatal(err)
		}
		nb := s.NumBlocks("sc")
		ids := make([]int, nb)
		for i := range ids {
			ids[i] = i
		}
		scan := scanOf(t, s)
		for i := 0; i < 8; i++ {
			scan.Prefetch(ids)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Close is idempotent and prefetch after close is a silent no-op.
		scan.Prefetch(ids)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStorePrefetchAcrossSwap starts readahead against one generation,
// swaps the segment mid-flight, and verifies demand reads only ever see
// the new generation afterwards (the pool's generation floor refuses any
// stale insert from the pinned old tableState).
func TestStorePrefetchAcrossSwap(t *testing.T) {
	tab := scanTable(t, 200)
	s := newScanStore(t, tab, interleavedGroups(200, 4), 1<<20)
	nb := s.NumBlocks("sc")
	ids := make([]int, nb)
	for i := range ids {
		ids[i] = i
	}
	old := scanOf(t, s) // pinned to the generation about to be retired
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			old.Prefetch(ids)
		}
	}()
	// Swap to a different layout while prefetches are in flight.
	tl2, err := block.NewTableLayout(tab, interleavedGroups(200, 2), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetLayout("sc", tl2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	nb2 := s.NumBlocks("sc")
	if nb2 == nb {
		t.Fatalf("fixture: swap did not change block count (%d)", nb)
	}
	fresh := scanOf(t, s)
	for id := 0; id < nb2; id++ {
		rows, err := fresh.ScanBlock(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows != 100 {
			t.Fatalf("block %d: %d rows, want 100 (new generation)", id, rows)
		}
	}
}

func seqRows(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
