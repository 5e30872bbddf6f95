package colstore

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file pins the unit of segment I/O: a block visit reads the row-ID
// page and the pages of the columns it names — each once, each verified
// when it is read — and nothing else.

// pageBytes sums, over the given blocks, the on-disk size (frame + payload,
// from the footer) of the row-ID page when rowIDs is set and of the named
// columns' pages.
func pageBytes(s *Store, ids []int, rowIDs bool, cols ...string) int64 {
	seg := s.state("sc").seg
	var n int64
	for _, id := range ids {
		pages := seg.blocks[id].pages
		if rowIDs {
			n += frameSize + pages[0].length
		}
		for _, col := range cols {
			ci, _ := seg.colIndex(col)
			n += frameSize + pages[1+ci].length
		}
	}
	return n
}

func allBlocks(s *Store) []int {
	ids := make([]int, s.NumBlocks("sc"))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// scanAll runs a one-filter scan over every block and returns its mask.
func scanAll(t *testing.T, s *Store, n int, p predicate.Predicate) ([]uint64, error) {
	t.Helper()
	var filters []predicate.Predicate
	masks := [][]uint64{}
	if p != nil {
		filters = []predicate.Predicate{p}
		masks = [][]uint64{make([]uint64, (n+63)/64)}
	}
	scan := s.CompileScan("sc", filters)
	for _, id := range allBlocks(s) {
		if _, err := scanRowMasks(scan, id, masks); err != nil {
			return nil, err
		}
	}
	if p == nil {
		return nil, nil
	}
	return masks[0], nil
}

// scanReadsPages reports whether scanAll(p)'s block visits name a page,
// that is whether they go through the pool.
func scanReadsPages(s *Store, p predicate.Predicate) bool {
	var filters []predicate.Predicate
	if p != nil {
		filters = []predicate.Predicate{p}
	}
	return len(s.CompileScan("sc", filters).(*TableScan).touched) > 0
}

// foldAll folds every block's rows (all of them survive) into fresh states.
func foldAll(s *Store, n int, group block.GroupKey, aggs []workload.Aggregate) (*block.GroupedStates, error) {
	fold := s.CompileFold("sc", group, aggs)
	surv := make([]uint64, (n+63)/64)
	predicate.SetAll(surv, n)
	gs := block.NewGroupedStates(group.Slots(), fold.Supported())
	for _, id := range allBlocks(s) {
		if err := foldRowMask(fold, id, surv, gs); err != nil {
			return nil, err
		}
	}
	return gs, nil
}

func wantMask(tab *relation.Table, p predicate.Predicate) []uint64 {
	want := make([]uint64, (tab.NumRows()+63)/64)
	predicate.FillMask(p, tab, want)
	return want
}

func TestScanReadsOnlyTouchedPages(t *testing.T) {
	const n = 200
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 4)
	dict, err := relation.BuildColumnDict(tab, "s_dict")
	if err != nil {
		t.Fatal(err)
	}
	byDict := block.GroupKey{Column: "s_dict", Dict: dict}
	oneCol := predicate.NewComparison("i_for", predicate.Gt, value.Int(150))
	twoCols := predicate.NewAnd(oneCol, predicate.NewComparison("s_dict", predicate.Eq, value.String("v03")))
	sumDelta := []workload.Aggregate{{Op: workload.AggSum, Alias: "sc", Column: "i_delta"}}

	// step runs one visit of every block and checks what it read.
	step := func(s *Store, name string, wantBytes, wantMisses int64, visit func() error) {
		t.Helper()
		before := s.Stats()
		if err := visit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := s.Stats().Sub(before)
		if d.BytesRead != wantBytes || d.CacheMisses != wantMisses {
			t.Errorf("%s: read %d bytes in %d missed visits, want %d in %d", name, d.BytesRead, d.CacheMisses, wantBytes, wantMisses)
		}
	}
	scanStep := func(s *Store, p predicate.Predicate) func() error {
		return func() error {
			got, err := scanAll(t, s, n, p)
			if err == nil && p != nil && !reflect.DeepEqual(got, wantMask(tab, p)) {
				t.Errorf("%s: mask differs from FillMask", p)
			}
			return err
		}
	}
	var wantFold *block.GroupedStates
	foldStep := func(s *Store) func() error {
		return func() error {
			gs, err := foldAll(s, n, byDict, sumDelta)
			if wantFold == nil {
				wantFold = gs
			} else if err == nil && !reflect.DeepEqual(gs, wantFold) {
				t.Errorf("grouped fold differs between stores")
			}
			return err
		}
	}

	s := newScanStore(t, tab, groups, 1<<20)
	ids := allBlocks(s)
	nb := int64(len(ids))
	step(s, "one-column filter, cold", pageBytes(s, ids, false, "i_for"), nb, scanStep(s, oneCol))
	step(s, "same scan again", 0, 0, scanStep(s, oneCol))
	step(s, "one more column", pageBytes(s, ids, false, "s_dict"), nb, scanStep(s, twoCols))
	step(s, "unfiltered alias over resident blocks", 0, 0, scanStep(s, nil))
	step(s, "fold: group column resident, aggregate column not", pageBytes(s, ids, false, "i_delta"), nb, foldStep(s))
	step(s, "same fold again", 0, 0, foldStep(s))
	if _, bytes := s.pool.Resident(); bytes != pageBytes(s, ids, false, "i_for", "s_dict", "i_delta")-3*nb*frameSize {
		t.Errorf("pool charges %d bytes for three pages of each block", bytes)
	}

	cold := newScanStore(t, tab, groups, 1<<20)
	step(cold, "unfiltered alias, cold", 0, 0, scanStep(cold, nil))
	cold = newScanStore(t, tab, groups, 1<<20)
	step(cold, "fold, cold", pageBytes(cold, ids, false, "i_delta", "s_dict"), nb, foldStep(cold))

	// No pool, and a pool smaller than one block's touched pages (a fold's
	// two pages hold at least 29 bytes): every visit re-reads exactly its
	// pages.
	for _, capacity := range []int64{0, 16} {
		s := newScanStore(t, tab, groups, capacity)
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("capacity %d, round %d", capacity, round)
			step(s, name+": scan", pageBytes(s, ids, false, "i_for", "s_dict"), nb, scanStep(s, twoCols))
			step(s, name+": fold", pageBytes(s, ids, false, "i_delta", "s_dict"), nb, foldStep(s))
		}
		if entries, _ := s.pool.Resident(); entries != 0 {
			t.Errorf("capacity %d: %d entries resident", capacity, entries)
		}
	}
}

// TestConstFalseLeafReadsNoPage: a leaf normalization turns into
// Const(false) — an int column against a string literal — loads no page
// of its column: alone it reads the bytes a FALSE filter reads (none),
// and under an OR it adds nothing to the other leaf's pages.
func TestConstFalseLeafReadsNoPage(t *testing.T) {
	const n = 200
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 4)
	read := func(p predicate.Predicate) int64 {
		s := newScanStore(t, tab, groups, 1<<20)
		before := s.Stats()
		got, err := scanAll(t, s, n, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantMask(tab, p)) {
			t.Errorf("%s: mask differs from FillMask", p)
		}
		return s.Stats().Sub(before).BytesRead
	}
	mistyped := predicate.NewComparison("i_for", predicate.Eq, value.String("x"))
	dictLeaf := predicate.NewComparison("s_dict", predicate.Eq, value.String("v03"))
	if got, want := read(mistyped), read(predicate.False()); got != want {
		t.Errorf("%s read %d bytes, FALSE reads %d", mistyped, got, want)
	}
	if got, want := read(predicate.NewOr(mistyped, dictLeaf)), read(dictLeaf); got != want {
		t.Errorf("OR with %s read %d bytes, %s alone reads %d", mistyped, got, dictLeaf, want)
	}
}

// TestReadBlockSharesScanEntry: ReadBlock reads the row-ID page through
// the block's one pool entry, and a scan never reads it. After a scan of
// the block ReadBlock adds only the row-ID page to the entry; before one,
// it leaves the scan only its column's page to read; once both ran, it
// reads nothing (one hit).
func TestReadBlockSharesScanEntry(t *testing.T) {
	const n = 200
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 4)
	p := predicate.NewComparison("i_for", predicate.Gt, value.Int(150))
	eachByteSource(t, 1<<20, func(t *testing.T, s *Store) {
		installScanTable(t, s, tab, groups)
		scan := s.CompileScan("sc", []predicate.Predicate{p})
		masks := [][]uint64{make([]uint64, (n+63)/64)}
		scanBlock := func(id int) func() error {
			return func() error { _, err := scanRowMasks(scan, id, masks); return err }
		}
		readBlock := func(id int) func() error {
			return func() error { _, err := s.ReadBlock("sc", id); return err }
		}
		step := func(name string, wantHits, wantMisses, wantBytes int64, visit func() error) {
			t.Helper()
			before := s.Stats()
			if err := visit(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := s.Stats().Sub(before)
			if d.CacheHits != wantHits || d.CacheMisses != wantMisses || d.BytesRead != wantBytes {
				t.Errorf("%s: %d hits, %d misses, %d bytes read; want %d, %d, %d",
					name, d.CacheHits, d.CacheMisses, d.BytesRead, wantHits, wantMisses, wantBytes)
			}
		}
		step("scan of block 0, cold", 0, 1, pageBytes(s, []int{0}, false, "i_for"), scanBlock(0))
		step("ReadBlock(0) after the scan", 0, 1, pageBytes(s, []int{0}, true), readBlock(0))
		step("scan of block 0 after ReadBlock", 1, 0, 0, scanBlock(0))
		step("ReadBlock(1), cold", 0, 1, pageBytes(s, []int{1}, true), readBlock(1))
		step("scan of block 1 after ReadBlock", 0, 1, pageBytes(s, []int{1}, false, "i_for"), scanBlock(1))
		step("ReadBlock(1) after both", 1, 0, 0, readBlock(1))
		if entries, _ := s.pool.Resident(); entries != 2 {
			t.Errorf("%d pool entries for two blocks", entries)
		}
	})
}

// TestPoolSmallerThanOneBlock: a pool too small for any page caches none
// and changes no answer. Every scan and fold matches an ample-pool store,
// the pool never holds more than its capacity, and every block visit that
// reads a page is a miss. A visit that reads none (an unfiltered scan, a
// FALSE filter, an ungrouped COUNT(*)) skips the pool: no hit, no miss,
// no byte read.
func TestPoolSmallerThanOneBlock(t *testing.T) {
	const n = 200
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 4)
	ample := newScanStore(t, tab, groups, 1<<30)
	capacity := int64(n) * 4
	for _, bm := range ample.state("sc").seg.blocks {
		for _, pm := range bm.pages[1:] {
			capacity = min(capacity, pm.length-1)
		}
	}
	s := newScanStore(t, tab, groups, capacity)
	nb := int64(s.NumBlocks("sc"))

	step := func(name string, empty bool, visit func(s *Store) (interface{}, error)) {
		t.Helper()
		before := s.Stats()
		got, err := visit(s)
		want, wantE := visit(ample)
		if err != nil || wantE != nil {
			t.Fatalf("%s: %v / ample pool: %v", name, err, wantE)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: differs from the ample-pool store", name)
		}
		d := s.Stats().Sub(before)
		wantMisses := nb
		if empty {
			wantMisses = 0
		}
		if d.CacheHits != 0 || d.CacheMisses != wantMisses || empty && d.BytesRead != 0 {
			t.Errorf("%s: %d hits, %d misses, %d bytes over %d block visits", name, d.CacheHits, d.CacheMisses, d.BytesRead, nb)
		}
		if _, bytes := s.pool.Resident(); bytes > capacity {
			t.Errorf("%s: pool holds %d bytes, capacity %d", name, bytes, capacity)
		}
	}
	for _, p := range append(scanPredicates(), nil) {
		empty := !scanReadsPages(s, p)
		step(fmt.Sprint("scan ", p), empty, func(s *Store) (interface{}, error) { return scanAll(t, s, n, p) })
	}
	for _, group := range foldGroups(t, tab, "i_for", "s_dict") {
		for _, a := range aggMatrix() {
			if !wantSupported(a) {
				continue
			}
			aggs := []workload.Aggregate{a}
			empty := len(s.CompileFold("sc", group, aggs).(*TableFold).touched) == 0
			step(fmt.Sprintf("%s by %q", a, group.Column), empty, func(s *Store) (interface{}, error) {
				return foldAll(s, n, group, aggs)
			})
		}
	}
	if entries, bytes := s.pool.Resident(); entries != 0 || bytes != 0 {
		t.Errorf("%d entries, %d bytes resident in a pool of %d bytes", entries, bytes, capacity)
	}
}

// TestCorruptUntouchedPage flips one byte in one page of one block, in the
// segment file or in the bytes a store keeps in memory, and demands that
// only the visits that read that page fail, with a checksum error naming
// the block and page, and that the failed loads leave nothing of the page
// behind in the pool.
//
// A column page: every scan and fold that does not read it, and every
// ReadBlock (which reads only the row-ID page), answers as over the intact
// store. The row-ID page: only ReadBlock of that block fails — scans and
// folds never read the page — everything else answers as over the intact
// store, and the block's entry never holds row IDs.
func TestCorruptUntouchedPage(t *testing.T) {
	for _, src := range []string{"file", "ram"} {
		t.Run(src, func(t *testing.T) {
			corruptUntouchedPage(t, src)
			corruptRowIDPage(t, src)
		})
	}
}

// flipPageByte damages one payload byte of block bi's page pi (0 = row
// IDs, 1+ci = column ci) where the segment's bytes live: in its file, or in
// the image it reads.
func flipPageByte(t *testing.T, s *Store, bi, pi int) {
	t.Helper()
	st := s.state("sc")
	at := st.seg.blocks[bi].pages[pi].off + frameSize + 3
	if st.seg.Path() == "" {
		image := segmentImage(t, st.seg)
		image[at] ^= 0x40
		seg, err := openSegmentBytes(st.seg.name, image)
		if err != nil {
			t.Fatal(err)
		}
		st.seg = seg
		return
	}
	f, err := os.OpenFile(st.seg.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

// residentEntry returns the pool's entry for block id of the store's
// current "sc" generation, if it holds one.
func residentEntry(s *Store, id int) (*EncodedBlock, bool) {
	k := poolKey{table: "sc", gen: s.state("sc").gen, id: id}
	sh := s.pool.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*poolEntry).val, true
}

// foldGroups is the ungrouped fold and one dictionary-grouped fold per
// named column of tab.
func foldGroups(t *testing.T, tab *relation.Table, cols ...string) []block.GroupKey {
	t.Helper()
	groups := []block.GroupKey{{}}
	for _, col := range cols {
		dict, err := relation.BuildColumnDict(tab, col)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, block.GroupKey{Column: col, Dict: dict})
	}
	return groups
}

func corruptUntouchedPage(t *testing.T, src string) {
	const (
		n       = 200
		badCol  = "s_dict"
		badBlk  = 1
		wantErr = "block 1: page 5: checksum mismatch"
	)
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 4)
	intact := installScanTable(t, openByteSource(t, src, 1<<20), tab, groups)
	s := installScanTable(t, openByteSource(t, src, 1<<20), tab, groups)
	ci, _ := s.state("sc").seg.colIndex(badCol)
	flipPageByte(t, s, badBlk, 1+ci)

	check := func(name string, reads bool, got interface{}, err error, want interface{}, wantE error) {
		t.Helper()
		switch {
		case wantE != nil:
			t.Fatalf("%s: intact store: %v", name, wantE)
		case reads && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: err = %v, want %q", name, err, wantErr)
		case !reads && err != nil:
			t.Errorf("%s does not read %s, yet: %v", name, badCol, err)
		case !reads && !reflect.DeepEqual(got, want):
			t.Errorf("%s: result differs from the intact store", name)
		}
	}
	scans, failed := 0, 0
	for _, p := range scanPredicates() {
		// A leaf normalization turns into a constant (a NULL-poisoned
		// NOT IN, a column pair of unordered kinds) reads no page, so
		// whether p reads badCol is what its compiled scan touches.
		reads := slices.Contains(s.CompileScan("sc", []predicate.Predicate{p}).(*TableScan).touched, ci)
		got, err := scanAll(t, s, n, p)
		want, wantE := scanAll(t, intact, n, p)
		check(p.String(), reads, got, err, want, wantE)
		scans++
		if reads {
			failed++
		}
	}
	if failed == 0 || failed == scans {
		t.Fatalf("fixture: %d of %d scans read %s", failed, scans, badCol)
	}
	for _, group := range foldGroups(t, tab, "i_for", badCol) {
		for _, a := range aggMatrix() {
			if !wantSupported(a) {
				continue
			}
			aggs := []workload.Aggregate{a}
			got, err := foldAll(s, n, group, aggs)
			want, wantE := foldAll(intact, n, group, aggs)
			check(fmt.Sprintf("%s by %q", a, group.Column), a.Column == badCol || group.Column == badCol, got, err, want, wantE)
		}
	}
	if _, err := scanAll(t, s, n, nil); err != nil {
		t.Errorf("unfiltered scan: %v", err)
	}
	for id := range allBlocks(s) {
		got, err := s.ReadBlock("sc", id)
		want, wantE := intact.ReadBlock("sc", id)
		check(fmt.Sprintf("ReadBlock(%d)", id), false, got, err, want, wantE)
	}
	// The block's entry holds what the succeeding visits read, never the
	// bad page.
	if eb, ok := residentEntry(s, badBlk); !ok || eb.Cols[ci] != nil {
		t.Errorf("block %d: resident %v, corrupt page cached %v", badBlk, ok, ok && eb.Cols[ci] != nil)
	}
}

func corruptRowIDPage(t *testing.T, src string) {
	const (
		n       = 200
		badBlk  = 2
		wantErr = "block 2: page 0: checksum mismatch"
	)
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 4)
	intact := installScanTable(t, openByteSource(t, src, 1<<20), tab, groups)
	s := installScanTable(t, openByteSource(t, src, 1<<20), tab, groups)
	flipPageByte(t, s, badBlk, 0)
	nw := (n + 63) / 64

	// visit runs one visit of block id on the damaged store and on the
	// intact one: a visit that reads the damaged page must fail, any other
	// answer alike.
	visit := func(name string, id int, run func(s *Store) (interface{}, error)) {
		t.Helper()
		got, err := run(s)
		want, wantE := run(intact)
		bad := id == badBlk && name == "ReadBlock"
		switch {
		case wantE != nil:
			t.Fatalf("%s, block %d: intact store: %v", name, id, wantE)
		case bad && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s, block %d: err = %v, want %q", name, id, err, wantErr)
		case !bad && err != nil:
			t.Errorf("%s, block %d: %v", name, id, err)
		case !bad && !reflect.DeepEqual(got, want):
			t.Errorf("%s, block %d: differs from the intact store", name, id)
		}
	}
	preds := append(scanPredicates(), nil)
	for _, p := range preds {
		var filters []predicate.Predicate
		if p != nil {
			filters = []predicate.Predicate{p}
		}
		scans := map[*Store]block.Scan{s: s.CompileScan("sc", filters), intact: intact.CompileScan("sc", filters)}
		for _, id := range allBlocks(s) {
			visit(fmt.Sprint("scan ", p), id, func(st *Store) (interface{}, error) {
				masks := [][]uint64{make([]uint64, nw)}
				rows, err := scanRowMasks(scans[st], id, masks)
				return []interface{}{rows, masks}, err
			})
		}
	}
	for _, group := range foldGroups(t, tab, "i_for", "s_dict") {
		for _, a := range aggMatrix() {
			if !wantSupported(a) {
				continue
			}
			aggs := []workload.Aggregate{a}
			folds := map[*Store]block.Fold{s: s.CompileFold("sc", group, aggs), intact: intact.CompileFold("sc", group, aggs)}
			surv := make([]uint64, nw)
			predicate.SetAll(surv, n)
			for _, id := range allBlocks(s) {
				visit(fmt.Sprintf("%s by %q", a, group.Column), id, func(st *Store) (interface{}, error) {
					gs := block.NewGroupedStates(group.Slots(), folds[st].Supported())
					err := foldRowMask(folds[st], id, surv, gs)
					return gs, err
				})
			}
		}
	}
	for _, id := range allBlocks(s) {
		visit("ReadBlock", id, func(st *Store) (interface{}, error) { return st.ReadBlock("sc", id) })
	}
	for _, id := range allBlocks(s) {
		if eb, ok := residentEntry(s, id); !ok || (eb.Block.Rows == nil) != (id == badBlk) {
			t.Errorf("block %d: resident = %v, row IDs cached = %v after every visit", id, ok, ok && eb.Block.Rows != nil)
		}
	}
}

// TestConcurrentVisitsReadEachPageOnce: goroutines scanning and folding the
// same blocks with different column subsets on a cold pool read each page
// exactly once between them and answer as a sequential run does. Run with
// -race.
func TestConcurrentVisitsReadEachPageOnce(t *testing.T) {
	const n = 400
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 8)
	dict, err := relation.BuildColumnDict(tab, "s_dict")
	if err != nil {
		t.Fatal(err)
	}
	preds := []predicate.Predicate{
		predicate.NewComparison("i_for", predicate.Gt, value.Int(150)),
		predicate.NewComparison("s_dict", predicate.Eq, value.String("v03")),
		predicate.NewAnd(
			predicate.NewComparison("i_for", predicate.Le, value.Int(300)),
			predicate.NewLike("s_raw", "u01%"),
		),
		&predicate.ColumnComparison{Left: "f", Op: predicate.Lt, Right: "f2"},
		nil,
	}
	folds := []struct {
		group block.GroupKey
		aggs  []workload.Aggregate
	}{
		{block.GroupKey{}, []workload.Aggregate{{Op: workload.AggSum, Alias: "sc", Column: "i_delta"}}},
		{block.GroupKey{Column: "s_dict", Dict: dict}, []workload.Aggregate{{Op: workload.AggMin, Alias: "sc", Column: "i_raw"}}},
		{block.GroupKey{Column: "s_dict", Dict: dict}, []workload.Aggregate{{Op: workload.AggMax, Alias: "sc", Column: "s_raw"}}},
	}
	touched := []string{"i_for", "s_dict", "s_raw", "f", "f2", "i_delta", "i_raw"}

	run := func(s *Store, parallel bool) []interface{} {
		out := make([]interface{}, len(preds)+len(folds))
		var wg sync.WaitGroup
		visit := func(i int, fn func() (interface{}, error)) {
			wg.Add(1)
			body := func() {
				defer wg.Done()
				got, err := fn()
				if err != nil {
					t.Error(err)
				}
				out[i] = got
			}
			if parallel {
				go body()
			} else {
				body()
			}
		}
		for i, p := range preds {
			p := p
			visit(i, func() (interface{}, error) { return scanAll(t, s, n, p) })
		}
		for i, f := range folds {
			f := f
			visit(len(preds)+i, func() (interface{}, error) { return foldAll(s, n, f.group, f.aggs) })
		}
		wg.Wait()
		return out
	}
	want := run(newScanStore(t, tab, groups, 1<<20), false)
	for round := 0; round < 5; round++ {
		s := newScanStore(t, tab, groups, 1<<20)
		got := run(s, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("concurrent result differs from the sequential one")
		}
		st := s.Stats()
		if wantBytes := pageBytes(s, allBlocks(s), false, touched...); st.BytesRead != wantBytes {
			t.Fatalf("BytesRead = %d, want %d (each distinct page once)", st.BytesRead, wantBytes)
		}
		visits := int64(len(folds) * s.NumBlocks("sc"))
		for _, p := range preds {
			if scanReadsPages(s, p) {
				visits += int64(s.NumBlocks("sc"))
			}
		}
		if st.CacheHits+st.CacheMisses != visits {
			t.Fatalf("hits + misses = %d + %d, want %d block visits that read a page", st.CacheHits, st.CacheMisses, visits)
		}
	}
}

// TestPrefetchBoundedByPool: a candidate list far larger than the pool
// queues only what the pool can hold, so readahead does not evict its own
// unread loads, and the scan answers the same.
func TestPrefetchBoundedByPool(t *testing.T) {
	const n = 5000
	tab := scanTable(t, n)
	groups := interleavedGroups(n, 100)
	p := predicate.NewComparison("i_for", predicate.Gt, value.Int(150))
	filters := []predicate.Predicate{p}
	probe := newScanStore(t, tab, groups, 0)
	cols := probe.CompileScan("sc", filters).(*TableScan).touched
	capacity := 8 * probe.state("sc").seg.pagesSize(0, cols)
	fit, budget := int64(0), capacity // the longest candidate prefix the pool can hold
	for id := 0; budget >= 0; id++ {
		if budget -= probe.state("sc").seg.pagesSize(id, cols); budget >= 0 {
			fit++
		}
	}

	s := newScanStore(t, tab, groups, capacity)
	scan := s.CompileScan("sc", filters)
	scan.Prefetch(allBlocks(s))
	st := waitStats(t, s, func(st block.Stats) bool { return st.Prefetched >= fit })
	if fit < 7 || fit > 9 || st.Prefetched != fit {
		t.Fatalf("prefetched %d blocks into a pool of %d, want %d", st.Prefetched, capacity, fit)
	}
	mask := [][]uint64{make([]uint64, (n+63)/64)}
	for _, id := range allBlocks(s) {
		if _, err := scanRowMasks(scan, id, mask); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(mask[0], wantMask(tab, p)) {
		t.Error("scan after bounded readahead differs from FillMask")
	}
	st = s.Stats()
	// One shard can be handed more than its eighth of the pool; allow it
	// to have evicted a couple of its own loads.
	if unused := st.Prefetched - st.ReadaheadHits; unused > 2 {
		t.Errorf("%d of %d readahead loads evicted unread", unused, st.Prefetched)
	}
}
