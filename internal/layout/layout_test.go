package layout

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mto/internal/block"
	"mto/internal/block/blocktest"
	"mto/internal/colstore"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// twoColSchema is the schema of twoColDataset's table.
var twoColSchema = relation.MustSchema("T",
	relation.Column{Name: "x", Type: value.KindInt},
	relation.Column{Name: "y", Type: value.KindInt},
)

func twoColDataset(t *testing.T, n int, seed int64) *relation.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := relation.NewTable(twoColSchema)
	for i := 0; i < n; i++ {
		tab.MustAppendRow(value.Int(int64(rng.Intn(1000))), value.Int(int64(rng.Intn(1000))))
	}
	ds := relation.NewDataset()
	ds.MustAddTable(tab)
	return ds
}

func skippableBlocks(blocks []*block.Block, p predicate.Predicate) (skipped, total int) {
	for _, b := range blocks {
		total++
		if predicate.CompileRanges(p, twoColSchema)(b.Zone.Ranges()) == predicate.TriFalse {
			skipped++
		}
	}
	return
}

func TestSortKeyDesign(t *testing.T) {
	ds := twoColDataset(t, 10000, 1)
	d, err := SortKeyDesign(ds, SortKeys{"T": "x"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	tl := blocktest.ReadLayout(t, store, "T")
	// Sorted on x: a selective x filter skips most blocks via zone maps.
	px := predicate.NewComparison("x", predicate.Lt, value.Int(100))
	skipped, total := skippableBlocks(tl, px)
	if skipped < total*3/4 {
		t.Errorf("sort-key layout skipped %d/%d for sort-column filter", skipped, total)
	}
	// ...but a y filter skips almost nothing.
	py := predicate.NewComparison("y", predicate.Lt, value.Int(100))
	skipped, _ = skippableBlocks(tl, py)
	if skipped > total/10 {
		t.Errorf("unexpected skipping on non-sort column: %d/%d", skipped, total)
	}
	// Routing: queries touching T read all blocks; others read none.
	q := workload.NewQuery("q", workload.TableRef{Table: "T"})
	ids, ok := d.BlocksFor(q, "T", nil)
	if !ok || len(ids) != len(tl) {
		t.Errorf("BlocksFor = %d blocks, ok=%v", len(ids), ok)
	}
	foreign := workload.NewQuery("f", workload.TableRef{Table: "Z"})
	if _, ok := d.BlocksFor(foreign, "T", nil); ok {
		t.Error("foreign query should not touch T")
	}
	if _, ok := d.BlocksFor(q, "missing", nil); ok {
		t.Error("missing table should not resolve")
	}
}

func TestSortKeyErrors(t *testing.T) {
	ds := twoColDataset(t, 10, 1)
	if _, err := SortKeyDesign(ds, SortKeys{"T": "nope"}, 5); err == nil {
		t.Error("bad sort column accepted")
	}
}

func TestUnsortedTablesKeepOrder(t *testing.T) {
	ds := twoColDataset(t, 100, 2)
	d, err := SortKeyDesign(ds, SortKeys{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Table("T").Groups()
	if len(g) != 1 || g[0][0] != 0 || g[0][99] != 99 {
		t.Error("missing sort key should keep insertion order")
	}
}

func TestZOrderDesign(t *testing.T) {
	ds := twoColDataset(t, 20000, 3)
	d, err := ZOrderDesign(ds, ZOrderColumns{"T": {"x", "y"}}, 500)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	tl := blocktest.ReadLayout(t, store, "T")
	// Z-order gives some skipping on BOTH columns.
	px := predicate.NewComparison("x", predicate.Lt, value.Int(100))
	py := predicate.NewComparison("y", predicate.Lt, value.Int(100))
	skX, total := skippableBlocks(tl, px)
	skY, _ := skippableBlocks(tl, py)
	if skX == 0 || skY == 0 {
		t.Errorf("z-order should skip on both columns: x=%d y=%d of %d", skX, skY, total)
	}
	// Compare against sort-key: z-order skips less on x but more on y.
	sd, err := SortKeyDesign(ds, SortKeys{"T": "x"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	store2 := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := sd.Install(store2, nil, 0); err != nil {
		t.Fatal(err)
	}
	sorted := blocktest.ReadLayout(t, store2, "T")
	sortSkX, _ := skippableBlocks(sorted, px)
	sortSkY, _ := skippableBlocks(sorted, py)
	if !(skY > sortSkY) {
		t.Errorf("z-order y-skipping (%d) should beat sort-key (%d)", skY, sortSkY)
	}
	if !(skX < sortSkX) {
		t.Errorf("z-order x-skipping (%d) should trail sort-key (%d)", skX, sortSkX)
	}
}

func TestZOrderErrorsAndFallback(t *testing.T) {
	ds := twoColDataset(t, 10, 4)
	if _, err := ZOrderDesign(ds, ZOrderColumns{"T": {"nope"}}, 5); err == nil {
		t.Error("bad z column accepted")
	}
	// Unconfigured tables fall back to insertion order.
	d, err := ZOrderDesign(ds, ZOrderColumns{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g := d.Table("T").Groups(); len(g) != 1 || g[0][0] != 0 {
		t.Error("fallback ordering wrong")
	}
}

func TestInterleaveOrdering(t *testing.T) {
	// Two columns, 2 rows: row 0 low in both, row 1 high in both.
	ranks := [][]uint32{{0, 1 << 15}, {0, 1 << 15}}
	if !(interleave(ranks, 0) < interleave(ranks, 1)) {
		t.Error("interleave ordering broken")
	}
	// Ties share ranks.
	tab := relation.NewTable(relation.MustSchema("T",
		relation.Column{Name: "x", Type: value.KindInt},
	))
	for _, v := range []int64{5, 5, 5, 9} {
		tab.MustAppendRow(value.Int(v))
	}
	r := rankNormalize(tab, 0)
	if r[0] != r[1] || r[1] != r[2] {
		t.Errorf("equal values got different ranks: %v", r)
	}
	if r[3] <= r[0] {
		t.Errorf("larger value should rank higher: %v", r)
	}
}

func TestDesignRoutedGroups(t *testing.T) {
	ds := twoColDataset(t, 1000, 5)
	tab := ds.Table("T")
	// Two groups split at row 500, routed by a custom router that sends
	// queries with a filter to group 0 only.
	var g0, g1 []int32
	for i := 0; i < 500; i++ {
		g0 = append(g0, int32(i))
	}
	for i := 500; i < 1000; i++ {
		g1 = append(g1, int32(i))
	}
	d := NewDesign("custom", 100)
	d.SetTable(tab, [][]int32{g0, g1}, func(q *workload.Query, _ map[string]*predicate.Zone) []int {
		if len(q.Filters) > 0 {
			return []int{0}
		}
		return []int{0, 1}
	})
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	if gb := d.GroupBlocks("T"); len(gb) != 2 || len(gb[0]) != 5 || len(gb[1]) != 5 {
		t.Fatalf("GroupBlocks = %v", gb)
	}
	if d.GroupBlocks("missing") != nil {
		t.Error("missing table GroupBlocks should be nil")
	}
	filtered := workload.NewQuery("f", workload.TableRef{Table: "T"})
	filtered.Filter("T", predicate.NewComparison("x", predicate.Lt, value.Int(1)))
	ids, ok := d.BlocksFor(filtered, "T", nil)
	if !ok || len(ids) != 5 {
		t.Errorf("routed BlocksFor = %v", ids)
	}
	unfiltered := workload.NewQuery("u", workload.TableRef{Table: "T"})
	ids, _ = d.BlocksFor(unfiltered, "T", nil)
	if len(ids) != 10 {
		t.Errorf("unrouted BlocksFor = %v", ids)
	}
	// Out-of-range group indexes from a router are ignored.
	d2 := NewDesign("bad", 100)
	d2.SetTable(tab, [][]int32{append(g0, g1...)}, func(q *workload.Query, _ map[string]*predicate.Zone) []int { return []int{7} })
	if _, err := d2.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	if ids, _ := d2.BlocksFor(unfiltered, "T", nil); len(ids) != 0 {
		t.Errorf("out-of-range group gave blocks: %v", ids)
	}
}

func TestInstallJitter(t *testing.T) {
	ds := twoColDataset(t, 10000, 6)
	d, err := SortKeyDesign(ds, SortKeys{"T": "x"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, rand.New(rand.NewSource(1)), 0.1); err != nil {
		t.Fatal(err)
	}
	if store.NumBlocks("T") <= 10 {
		t.Error("jittered install should produce extra blocks")
	}
	// Group→block mapping still covers all blocks.
	gb := d.GroupBlocks("T")
	n := 0
	for _, ids := range gb {
		n += len(ids)
	}
	if n != store.NumBlocks("T") {
		t.Errorf("mapping covers %d of %d blocks", n, store.NumBlocks("T"))
	}
	// BlocksFor before Install panics.
	fresh := NewDesign("x", 10)
	fresh.SetTable(ds.Table("T"), [][]int32{d.Table("T").Groups()[0]}, func(*workload.Query, map[string]*predicate.Zone) []int { return []int{0} })
	q := workload.NewQuery("q", workload.TableRef{Table: "T"})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BlocksFor before Install should panic")
			}
		}()
		fresh.BlocksFor(q, "T", nil)
	}()
	if len(fresh.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
}

func TestDesignClone(t *testing.T) {
	ds := twoColDataset(t, 1000, 9)
	d, err := SortKeyDesign(ds, SortKeys{"T": "x"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	if c.Name != d.Name || c.BlockSize != d.BlockSize {
		t.Error("metadata not cloned")
	}
	q := workload.NewQuery("q", workload.TableRef{Table: "T"})
	a, _ := d.BlocksFor(q, "T", nil)
	b, _ := c.BlocksFor(q, "T", nil)
	if len(a) != len(b) {
		t.Fatalf("clone routes differently: %d vs %d", len(a), len(b))
	}
	// Replacing a table in the clone does not affect the original.
	rows := d.Table("T").Groups()[0]
	half := len(rows) / 2
	c.SetTable(ds.Table("T"), [][]int32{rows[:half], rows[half:]}, nil)
	store2 := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := c.Install(store2, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Table("T").Groups()); got != 1 {
		t.Errorf("original groups mutated: %d", got)
	}
	if got, _ := d.BlocksFor(q, "T", nil); len(got) != len(a) {
		t.Error("original routing changed after clone mutation")
	}
}

// TestBlockUnionMatchesMapDedup pins BlocksFor's union to the map-based
// dedup it replaced: same IDs in the same first-seen order, for groups
// routed in ascending, descending, shuffled and repeated order.
func TestBlockUnionMatchesMapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		// Consecutive block runs; a group may share its first block with
		// the previous group's last, as Install's packing does.
		groupBlocks := make([][]int, 1+rng.Intn(12))
		next := 0
		for gi := range groupBlocks {
			if gi > 0 && rng.Intn(2) == 0 {
				next-- // straddling block
			}
			for k := rng.Intn(4); k >= 0; k-- {
				groupBlocks[gi] = append(groupBlocks[gi], next)
				next++
			}
		}
		route := rng.Perm(len(groupBlocks))
		switch trial % 4 {
		case 0:
			sort.Ints(route)
		case 1:
			sort.Sort(sort.Reverse(sort.IntSlice(route)))
		case 2:
			route = append(route, route[:len(route)/2]...)
		}
		seen := map[int]bool{}
		var want []int
		for _, gi := range route {
			for _, id := range groupBlocks[gi] {
				if !seen[id] {
					seen[id] = true
					want = append(want, id)
				}
			}
		}
		var got blockUnion
		for _, gi := range route {
			got.add(groupBlocks[gi])
		}
		if !slices.Equal(got.ids, want) {
			t.Fatalf("groups %v routed %v: union %v, want %v", groupBlocks, route, got.ids, want)
		}
	}
}
