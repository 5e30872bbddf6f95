package colstore

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mto/internal/block"
	"mto/internal/block/blocktest"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// A store keeps its segments in files or in memory; everything a
// block.Backend promises must hold for both, through the same code. The
// tests in this file run each contract over both byte sources.

// eachByteSource runs fn as a subtest over a store that keeps its segments
// in memory and over one that keeps them in files (pooled, cacheBytes).
func eachByteSource(t *testing.T, cacheBytes int64, fn func(t *testing.T, s *Store)) {
	t.Helper()
	for _, src := range []string{"ram", "file"} {
		t.Run(src, func(t *testing.T) {
			fn(t, openByteSource(t, src, cacheBytes))
		})
	}
}

func openByteSource(t *testing.T, src string, cacheBytes int64) *Store {
	t.Helper()
	s := NewMemStore(block.DefaultCostModel())
	if src == "file" {
		var err error
		if s, err = NewStore(t.TempDir(), cacheBytes, block.DefaultCostModel()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func intTable(t *testing.T, n int) *relation.Table {
	t.Helper()
	tab := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "x", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		tab.MustAppendRow(value.Int(int64(i)))
	}
	return tab
}

// installInts installs n consecutive ints as table "t", blocked at
// blockSize in row order.
func installInts(t *testing.T, s *Store, n, blockSize int) *block.TableLayout {
	t.Helper()
	tl, err := block.NewTableLayout(intTable(t, n), [][]int32{seq32(0, n)}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetLayout("t", tl); err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestStoreReadAccounting(t *testing.T) {
	eachByteSource(t, 1<<20, func(t *testing.T, s *Store) {
		tab := intTable(t, 100)
		tl, err := block.NewTableLayout(tab, [][]int32{seq32(0, 100)}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if s.Cost() != block.DefaultCostModel() {
			t.Error("Cost() wrong")
		}
		writeSec, err := s.SetLayout("t", tl)
		if err != nil {
			t.Fatal(err)
		}
		if want := 10 * s.Cost().BlockWriteSeconds; writeSec != want {
			t.Errorf("SetLayout cost %g simulated seconds, want %g", writeSec, want)
		}
		if got := s.Stats(); got.BlocksWritten != 10 || got.RowsWritten != 100 {
			t.Errorf("write stats = %+v", got)
		}
		b, err := s.ReadBlock("t", 3)
		if err != nil {
			t.Fatal(err)
		}
		if b.ID != 3 || !reflect.DeepEqual(b.Rows, tl.Block(3).Rows) || !reflect.DeepEqual(b.Zone, tl.Block(3).Zone) {
			t.Error("wrong block read")
		}
		if got := s.Stats(); got.BlocksRead != 1 || got.RowsRead != 10 {
			t.Errorf("read stats = %+v", got)
		}
		if _, err := s.ReadBlock("t", 99); err == nil {
			t.Error("out-of-range read accepted")
		}
		if _, err := s.ReadBlock("missing", 0); err == nil {
			t.Error("missing table read accepted")
		}
		if s.NumBlocks("t") != 10 || s.NumBlocks("missing") != -1 {
			t.Error("NumBlocks wrong")
		}
		if s.Zones("missing") != nil {
			t.Error("Zones of a missing table")
		}
		if got := s.TotalBlocks(); got != 10 {
			t.Errorf("TotalBlocks = %d", got)
		}
		if got := s.TotalBlocks("t", "missing"); got != 10 {
			t.Errorf("TotalBlocks(named) = %d", got)
		}
		if names := s.Tables(); len(names) != 1 || names[0] != "t" {
			t.Errorf("Tables = %v", names)
		}
	})
}

// TestStoreScanHandleParity pins the scan handle's end of the pushdown
// contract: ScanBlock meters and reports rows exactly like ReadBlock (whose
// rows the scan's RowOrder lays out), fills
// the mask of every filter — an int column against a float literal too —
// and skips a nil one, Prefetch meters nothing, and a table without a
// layout compiles to nil.
func TestStoreScanHandleParity(t *testing.T) {
	eachByteSource(t, 1<<20, func(t *testing.T, s *Store) {
		tl := installInts(t, s, 100, 30)
		filters := []predicate.Predicate{
			predicate.NewComparison("x", predicate.Lt, value.Int(50)),
			predicate.NewComparison("x", predicate.Ge, value.Float(49.5)), // int column vs float literal
			predicate.NewComparison("x", predicate.Ge, value.Int(50)),
		}
		scan := s.CompileScan("t", filters)
		if scan == nil {
			t.Fatal("CompileScan returned nil for an installed table")
		}
		before := s.Stats()
		scan.Prefetch([]int{0, 1, 2, 3})
		if d := blocktest.SimulatedIO(s.Stats().Sub(before)); d != (block.Stats{}) {
			t.Errorf("Prefetch metered %+v", d)
		}
		masks := [][]uint64{make([]uint64, 2), make([]uint64, 2), nil}
		for id := 0; id < tl.NumBlocks(); id++ {
			before := s.Stats()
			rows, err := scanRowMasks(scan, id, masks)
			if err != nil {
				t.Fatal(err)
			}
			viaScan := blocktest.SimulatedIO(s.Stats().Sub(before))
			before = s.Stats()
			b, err := s.ReadBlock("t", id)
			if err != nil {
				t.Fatal(err)
			}
			if viaRead := blocktest.SimulatedIO(s.Stats().Sub(before)); viaScan != viaRead {
				t.Errorf("block %d: ScanBlock metered %+v, ReadBlock %+v", id, viaScan, viaRead)
			}
			order, err := scan.RowOrder()
			if err != nil {
				t.Fatal(err)
			}
			if got := order.Rows[order.WordStart[id]<<6:][:rows]; !reflect.DeepEqual(got, b.Rows) || !reflect.DeepEqual(got, tl.Block(id).Rows) {
				t.Errorf("block %d: ScanBlock's %d rows laid out as %v, ReadBlock's are %v", id, rows, got, b.Rows)
			}
		}
		if want := []uint64{1<<50 - 1, 0}; !reflect.DeepEqual(masks[0], want) {
			t.Errorf("x < 50 mask = %x, want %x", masks[0], want)
		}
		if want := []uint64{^uint64(1<<50 - 1), 1<<36 - 1}; !reflect.DeepEqual(masks[1], want) {
			t.Errorf("x >= 49.5 mask = %x, want %x", masks[1], want)
		}
		if _, err := scanRowMasks(scan, 99, masks); err == nil {
			t.Error("out-of-range ScanBlock accepted")
		}

		aggs := []workload.Aggregate{
			{Op: workload.AggCount, Alias: "t"},
			{Op: workload.AggSum, Alias: "t", Column: "x"},
		}
		fold := s.CompileFold("t", block.GroupKey{}, aggs)
		if fold == nil {
			t.Fatal("CompileFold returned nil for an installed table")
		}
		if got := fold.Supported(); !reflect.DeepEqual(got, []bool{true, true}) {
			t.Errorf("Supported = %v, want both folded", got)
		}
		// A group column without a dictionary cannot key dense slots.
		if got := s.CompileFold("t", block.GroupKey{Column: "x"}, aggs).Supported(); !reflect.DeepEqual(got, []bool{false, false}) {
			t.Errorf("undictionaried group: Supported = %v, want all declined", got)
		}
		if s.CompileScan("missing", filters) != nil || s.CompileFold("missing", block.GroupKey{}, aggs) != nil {
			t.Error("compile against a table with no layout did not return nil")
		}
	})
}

func TestReplaceBlocks(t *testing.T) {
	eachByteSource(t, 1<<20, func(t *testing.T, s *Store) {
		installInts(t, s, 100, 10)
		before := s.Stats()

		// Reorganize blocks 0 and 1 (rows 0..19) into a new grouping.
		newGroups := [][]int32{seq32(10, 20), seq32(0, 10)}
		sec, err := s.ReplaceBlocks("t", map[int]bool{0: true, 1: true}, newGroups, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * s.Cost().BlockWriteSeconds; sec != want {
			t.Errorf("replacement cost %g simulated seconds, want %g", sec, want)
		}
		if d := s.Stats().Sub(before); d.BlocksWritten != 2 || d.RowsWritten != 20 {
			t.Errorf("replacement wrote %d blocks / %d rows, want 2 / 20", d.BlocksWritten, d.RowsWritten)
		}
		if s.NumBlocks("t") != 10 {
			t.Fatalf("NumBlocks after replace = %d", s.NumBlocks("t"))
		}
		// Kept blocks are renumbered from 0, the new groups appended in
		// order, and every row is still in exactly one block.
		seen := make([]bool, 100)
		for id := 0; id < 10; id++ {
			b, err := s.ReadBlock("t", id)
			if err != nil {
				t.Fatal(err)
			}
			want := seq32(20+10*id, 30+10*id)
			if id >= 8 {
				want = newGroups[id-8]
			}
			if !reflect.DeepEqual(b.Rows, want) {
				t.Errorf("block %d holds rows %v, want %v", id, b.Rows, want)
			}
			iv := b.Zone.Column("x")
			if iv.Min.Int() != int64(want[0]) || iv.Max.Int() != int64(want[9]) {
				t.Errorf("block %d zone = %v", id, iv)
			}
			for _, r := range b.Rows {
				if seen[r] {
					t.Errorf("row %d in two blocks", r)
				}
				seen[r] = true
			}
		}

		// Error paths.
		if _, err := s.ReplaceBlocks("missing", nil, nil, 10); err == nil {
			t.Error("missing table accepted")
		}
		beforeBad := s.Stats()
		if _, err := s.ReplaceBlocks("t", map[int]bool{0: true}, nil, 10); err == nil {
			t.Error("row-losing replacement accepted")
		}
		if d := blocktest.SimulatedIO(s.Stats().Sub(beforeBad)); d != (block.Stats{}) || s.NumBlocks("t") != 10 {
			t.Errorf("refused replacement changed the store: %+v", d)
		}
	})
}

// TestStoreZoneSkip: the zone maps a store serves from its footers let a
// range filter over a sorted layout skip most blocks, at no page I/O.
func TestStoreZoneSkip(t *testing.T) {
	eachByteSource(t, 1<<20, func(t *testing.T, s *Store) {
		installInts(t, s, 1000, 100)
		p := predicate.NewComparison("x", predicate.Lt, value.Int(150))
		matched := 0
		for _, z := range s.Zones("t") {
			if predicate.CompileRanges(p)(z.Ranges()) != predicate.TriFalse {
				matched++
			}
		}
		if matched != 2 {
			t.Errorf("matched %d blocks, want 2", matched)
		}
		if st := s.Stats(); st.BytesRead != 0 || st.BlocksRead != 0 {
			t.Errorf("pruning read pages: %+v", st)
		}
	})
}

// segmentImage reads a segment's bytes back through the reader its pages
// are served from.
func segmentImage(t *testing.T, seg *Segment) []byte {
	t.Helper()
	image, err := io.ReadAll(io.NewSectionReader(seg.r, 0, 1<<40)) // to EOF
	if err != nil || int64(len(image)) <= seg.pageEnd {
		t.Fatalf("read back %d segment bytes (pages end at %d): %v", len(image), seg.pageEnd, err)
	}
	return image
}

// workout drives one fixed sequence of scans (of preds: scanPredicates
// orders its list anew on every call), folds, block reads and a partial
// replacement against the "sc" table and returns everything it observed.
// hits + misses must account for every block visit that names a page.
func workout(t *testing.T, s *Store, tab *relation.Table, preds []predicate.Predicate) (out []interface{}) {
	t.Helper()
	n := tab.NumRows()
	visits := int64(0)
	base := s.Stats()
	round := func() {
		nb := int64(s.NumBlocks("sc"))
		for _, p := range preds {
			mask, err := scanAll(t, s, n, p)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if !reflect.DeepEqual(mask, wantMask(tab, p)) {
				t.Errorf("%s: mask differs from FillMask", p)
			}
			out = append(out, mask)
			if scanReadsPages(s, p) {
				visits += nb
			}
		}
		dict, err := relation.BuildColumnDict(tab, "s_dict")
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range []block.GroupKey{{}, {Column: "s_dict", Dict: dict}} {
			gs, err := foldAll(s, n, group, aggMatrix())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, gs)
			visits += nb
		}
		for id := 0; id < int(nb); id++ {
			b, err := s.ReadBlock("sc", id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
			visits++
		}
	}
	round()
	b0, err := s.ReadBlock("sc", 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.ReadBlock("sc", 2)
	if err != nil {
		t.Fatal(err)
	}
	visits += 2
	regroup := append(append([]int32(nil), b2.Rows...), b0.Rows...)
	sec, err := s.ReplaceBlocks("sc", map[int]bool{0: true, 2: true}, [][]int32{regroup}, 40)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sec, s.Zones("sc"))
	round()

	st := s.Stats().Sub(base)
	if st.CacheHits+st.CacheMisses != visits {
		t.Errorf("%d hits + %d misses, %d block visits that read a page", st.CacheHits, st.CacheMisses, visits)
	}
	return append(out, block.Stats{BlocksRead: st.BlocksRead, RowsRead: st.RowsRead,
		BytesRead: st.BytesRead, BlocksWritten: st.BlocksWritten, RowsWritten: st.RowsWritten})
}

// TestRAMAndFileSameSegment: where the bytes live is the only difference
// between the two stores. The same layout encodes to the same bytes and the
// same operations see the same masks, states, blocks and metering.
// (TestCorruptUntouchedPage damages a page in each and demands the same
// failures.)
func TestRAMAndFileSameSegment(t *testing.T) {
	const n = 200
	tab := scanTable(t, n)
	// Interleaved by 4 gives every encoding but raw strings, by 3 every one
	// but raw ints: blocks of both shapes.
	groups := append(interleavedGroups(n/2, 4), interleavedGroups(n/2, 3)...)
	for _, g := range groups[4:] {
		for k := range g {
			g[k] += n / 2
		}
	}
	// The file store's pool evicts nothing either.
	ram := installScanTable(t, openByteSource(t, "ram", 0), tab, groups)
	file := installScanTable(t, openByteSource(t, "file", 1<<30), tab, groups)

	seen := map[byte]bool{}
	recordEncodings(t, ram, seen)
	for _, enc := range []byte{encIntRaw, encIntFOR, encIntDelta, encFloatRaw, encStrRaw, encStrDict} {
		if !seen[enc] {
			t.Errorf("fixture: no page with encoding 0x%02x", enc)
		}
	}
	onDisk, err := os.ReadFile(file.state("sc").seg.Path())
	if err != nil {
		t.Fatal(err)
	}
	if image := segmentImage(t, ram.state("sc").seg); !bytes.Equal(image, onDisk) {
		t.Fatalf("RAM generation holds %d bytes, the file %d, and they differ", len(image), len(onDisk))
	}
	if ram.state("sc").seg.Path() != "" {
		t.Error("RAM segment has a path")
	}

	preds := scanPredicates()
	if got, want := workout(t, ram, tab, preds), workout(t, file, tab, preds); !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("observation %d differs:\n ram  %+v\n file %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("RAM store observed %d results, file store %d", len(got), len(want))
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestSupersededSegmentsReleased: a swap drops the store's reference to the
// old generation. A scan compiled before the swap keeps reading it, and
// once nothing does, its file descriptor goes with it — a long-lived store
// holds O(1) descriptors however many generations it has installed.
func TestSupersededSegmentsReleased(t *testing.T) {
	const n, swaps = 200, 50
	tab := scanTable(t, n)
	s := newScanStore(t, tab, interleavedGroups(n, 4), 1<<20)
	p := predicate.NewComparison("i_for", predicate.Gt, value.Int(150))
	want := wantMask(tab, p)

	before := openFDs(t)
	old := s.CompileScan("sc", []predicate.Predicate{p})
	oldPath := s.state("sc").seg.Path()
	for i := 0; i < swaps; i++ {
		b0, err := s.ReadBlock("sc", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReplaceBlocks("sc", map[int]bool{0: true}, [][]int32{b0.Rows}, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Errorf("superseded segment file still linked: %v", err)
	}
	segs, err := os.ReadDir(s.Dir())
	if err != nil || len(segs) != 1 {
		t.Errorf("data directory holds %d files after %d swaps, want 1 (%v)", len(segs), swaps, err)
	}

	// The pre-swap scan still answers, from the unlinked generation.
	mask := [][]uint64{make([]uint64, (n+63)/64)}
	for id := 0; id < 4; id++ {
		if _, err := scanRowMasks(old, id, mask); err != nil {
			t.Fatalf("scan compiled before the swaps: block %d: %v", id, err)
		}
	}
	if !reflect.DeepEqual(mask[0], want) {
		t.Error("scan compiled before the swaps answers differently")
	}
	if got, err := scanAll(t, s, n, p); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("scan of the current generation: differs or %v", err)
	}

	// old is dead from here on. Finalizers run some time after the
	// collection that finds the files unreachable; poll rather than guess
	// how many cycles that takes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if openFDs(t) <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if now := openFDs(t); now > before+2 {
		t.Errorf("%d file descriptors open after %d swaps, %d before them", now, swaps, before)
	}
}
