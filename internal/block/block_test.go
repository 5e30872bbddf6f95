package block

import (
	"math/rand"
	"reflect"
	"testing"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
)

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

func seqRows(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

func TestNewTableLayout(t *testing.T) {
	tab := intTable(t, 100)
	tl, err := NewTableLayout(tab, [][]int32{seqRows(0, 60), seqRows(60, 100)}, 25)
	if err != nil {
		t.Fatal(err)
	}
	// 60 rows → 3 blocks (25, 25, 10); 40 rows → 2 blocks (25, 15).
	if tl.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d, want 5", tl.NumBlocks())
	}
	if tl.Block(0).NumRows() != 25 || tl.Block(2).NumRows() != 10 || tl.Block(4).NumRows() != 15 {
		t.Error("block sizes wrong")
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tl.Table() != tab {
		t.Error("Table() wrong")
	}
	// Zone maps are attached and reflect contents.
	z := tl.Block(0).Zone
	if z.Column("x").Min.Int() != 0 || z.Column("x").Max.Int() != 24 {
		t.Error("block 0 zone wrong")
	}
	if len(tl.Blocks()) != 5 {
		t.Error("Blocks() wrong")
	}
}

func TestNewTableLayoutErrors(t *testing.T) {
	tab := intTable(t, 10)
	if _, err := NewTableLayout(tab, [][]int32{seqRows(0, 10)}, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewTableLayout(tab, [][]int32{seqRows(0, 5)}, 5); err == nil {
		t.Error("partial coverage accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tab := intTable(t, 10)
	tl, err := NewTableLayout(tab, [][]int32{seqRows(0, 10)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tl.blocks[0].Rows[0] = 5 // duplicate row 5, orphan row 0
	if err := tl.Validate(); err == nil {
		t.Error("Validate missed duplicate row")
	}
	tl.blocks[0].Rows[0] = 99
	if err := tl.Validate(); err == nil {
		t.Error("Validate missed out-of-range row")
	}
}

func TestJitteredLayout(t *testing.T) {
	tab := intTable(t, 10000)
	rng := rand.New(rand.NewSource(3))
	tl, err := NewJitteredTableLayout(tab, [][]int32{seqRows(0, 10000)}, 1000, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tl.NumBlocks() <= 10 {
		t.Errorf("jittered layout should need more blocks than uniform: %d", tl.NumBlocks())
	}
	sawSmall := false
	for _, b := range tl.Blocks() {
		if b.NumRows() > 1000 {
			t.Fatalf("block exceeds target size: %d", b.NumRows())
		}
		if b.NumRows() < 700 {
			sawSmall = true
		}
	}
	if !sawSmall {
		t.Error("expected some underfilled blocks")
	}
	if _, err := NewJitteredTableLayout(tab, nil, 0, 0.5, rng); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewJitteredTableLayout(tab, nil, 10, 0, rng); err == nil {
		t.Error("zero minFill accepted")
	}
	if _, err := NewJitteredTableLayout(tab, [][]int32{seqRows(0, 5)}, 10, 0.5, rng); err == nil {
		t.Error("partial coverage accepted")
	}
}

func TestStatsSubRoundTrip(t *testing.T) {
	// Sub must cover every counter, so experiment deltas never silently
	// drop a dimension when a new one is added.
	a := Stats{
		BlocksRead: 10, BlocksWritten: 20, RowsRead: 30, RowsWritten: 40,
		CacheHits: 50, CacheMisses: 60, CacheEvictions: 70, BytesRead: 80,
		Prefetched: 90, ReadaheadHits: 100, GroupedFoldsDeclined: 110,
		ScanLeaves: 120, ScanLeavesZoneDecided: 130, ScanPageDecodes: 140,
	}
	b := Stats{
		BlocksRead: 1, BlocksWritten: 2, RowsRead: 3, RowsWritten: 4,
		CacheHits: 5, CacheMisses: 6, CacheEvictions: 7, BytesRead: 8,
		Prefetched: 9, ReadaheadHits: 10, GroupedFoldsDeclined: 11,
		ScanLeaves: 12, ScanLeavesZoneDecided: 13, ScanPageDecodes: 14,
	}
	want := Stats{
		BlocksRead: 9, BlocksWritten: 18, RowsRead: 27, RowsWritten: 36,
		CacheHits: 45, CacheMisses: 54, CacheEvictions: 63, BytesRead: 72,
		Prefetched: 81, ReadaheadHits: 90, GroupedFoldsDeclined: 99,
		ScanLeaves: 108, ScanLeavesZoneDecided: 117, ScanPageDecodes: 126,
	}
	if got := a.Sub(b); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
	// Every counter must be exercised above: a field left at zero in `a`
	// means the literal (and likely Sub) was not extended with it.
	av := reflect.ValueOf(a)
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Int() == 0 {
			t.Errorf("Stats field %s not covered by the round-trip literals",
				av.Type().Field(i).Name)
		}
	}
	if got := a.Sub(Stats{}); got != a {
		t.Errorf("Sub(zero) = %+v, want %+v", got, a)
	}
	if got := a.Sub(a); got != (Stats{}) {
		t.Errorf("Sub(self) = %+v, want zero", got)
	}
}

func TestCostModelDefaults(t *testing.T) {
	cm := DefaultCostModel()
	if cm.BlockWriteSeconds < 99*cm.BlockReadSeconds {
		t.Errorf("write/read ratio should be ~100×: %g/%g", cm.BlockWriteSeconds, cm.BlockReadSeconds)
	}
}

func TestZoneSkipIntegration(t *testing.T) {
	// End-to-end: a sorted layout lets range filters skip most blocks.
	tab := intTable(t, 1000)
	tl, err := NewTableLayout(tab, [][]int32{seqRows(0, 1000)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := predicate.NewComparison("x", predicate.Lt, value.Int(150))
	matched := 0
	for _, b := range tl.Blocks() {
		if predicate.CompileRanges(p)(b.Zone.Ranges()) != predicate.TriFalse {
			matched++
		}
	}
	if matched != 2 {
		t.Errorf("matched %d blocks, want 2", matched)
	}
}

// TestRowOrderGeometry: each block starts on a word boundary and owns
// ⌈rows/64⌉ words, positions map to the block's rows in order and padding
// to -1, and every word knows its block.
func TestRowOrderGeometry(t *testing.T) {
	seq := func(lo, n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(lo + i)
		}
		return out
	}
	blocks := [][]int32{seq(100, 1), seq(0, 64), seq(200, 65), seq(64, 36)}
	o := NewRowOrder(blocks)
	if want := []int{0, 1, 2, 4, 5}; !reflect.DeepEqual(o.WordStart, want) {
		t.Fatalf("WordStart = %v, want %v", o.WordStart, want)
	}
	if o.Words() != 5 || len(o.Rows) != 5*64 {
		t.Fatalf("%d words, %d positions", o.Words(), len(o.Rows))
	}
	set := make([]uint64, o.Words())
	for b, rows := range blocks {
		words := o.Block(set, b)
		if len(words) != (len(rows)+63)/64 || cap(words) != len(words) {
			t.Errorf("block %d: %d words (cap %d) for %d rows", b, len(words), cap(words), len(rows))
		}
		base := o.WordStart[b] << 6
		for k := 0; k < len(words)*64; k++ {
			want := int32(-1)
			if k < len(rows) {
				want = rows[k]
			}
			if got := o.Rows[base+k]; got != want {
				t.Errorf("block %d position %d: row %d, want %d", b, k, got, want)
			}
			if got := o.BlockOf(base + k); got != b {
				t.Errorf("position %d: block %d, want %d", base+k, got, b)
			}
		}
	}
}
