package engine

import (
	"math/rand"
	"strings"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// starDS builds dim(id unique, attr) + fact(fid, did, v, d) where fact.d is
// a "date" correlated with fid (sorted insertion order).
func starDS(t *testing.T, dims, factRows int, seed int64) *relation.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := relation.NewDataset()
	dim := relation.NewTable(relation.MustSchema("dim",
		relation.Column{Name: "id", Type: value.KindInt, Unique: true},
		relation.Column{Name: "attr", Type: value.KindInt},
	))
	for i := 0; i < dims; i++ {
		dim.MustAppendRow(value.Int(int64(i)), value.Int(int64(i%10)))
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "did", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < factRows; i++ {
		fact.MustAppendRow(
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(dims))),
			value.Int(int64(rng.Intn(1000))),
			value.Int(int64(i/100)), // date advances with fid
		)
	}
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)
	return ds
}

func installBaseline(t *testing.T, ds *relation.Dataset, blockSize int) (*colstore.Store, *layout.Design) {
	t.Helper()
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "d", "dim": "id"}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	return store, d
}

func joinQuery(id string, attr int64, extra ...predicate.Predicate) *workload.Query {
	q := workload.NewQuery(id,
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("attr", predicate.Eq, value.Int(attr)))
	for _, p := range extra {
		q.Filter("fact", p)
	}
	return q
}

func TestExecuteBasics(t *testing.T) {
	ds := starDS(t, 100, 10000, 1)
	store, design := installBaseline(t, ds, 500)
	e := New(store, design, ds, DefaultOptions())

	q := joinQuery("q", 3)
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRead == 0 || res.TotalBlocks == 0 {
		t.Fatal("no blocks read")
	}
	if res.FractionOfBlocks() <= 0 || res.FractionOfBlocks() > 1 {
		t.Errorf("fraction = %g", res.FractionOfBlocks())
	}
	if res.Seconds <= 0 {
		t.Error("no simulated time")
	}
	// Surviving dim rows = dims with attr=3 (10 of 100).
	if got := res.SurvivingRows["dim"]; got != 10 {
		t.Errorf("dim survivors = %d, want 10", got)
	}
	// Surviving fact rows = fact rows joining those dims; all have
	// attr = did%10 == 3.
	fact := ds.Table("fact")
	want := 0
	for r := 0; r < fact.NumRows(); r++ {
		if fact.ValueByName(r, "did").Int()%10 == 3 {
			want++
		}
	}
	if got := res.SurvivingRows["fact"]; got != want {
		t.Errorf("fact survivors = %d, want %d", got, want)
	}
	if res.PerTable["fact"].RowsScanned == 0 {
		t.Error("no rows scanned")
	}
}

func TestZoneMapSkipping(t *testing.T) {
	ds := starDS(t, 100, 10000, 2)
	store, design := installBaseline(t, ds, 500)
	e := New(store, design, ds, DefaultOptions())

	// fact sorted by d: a selective d filter reads few fact blocks.
	q := workload.NewQuery("dfilter", workload.TableRef{Table: "fact"})
	q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int(5)))
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	factBlocks := store.NumBlocks("fact")
	if res.PerTable["fact"].BlocksRead >= factBlocks/2 {
		t.Errorf("zone maps failed: read %d of %d", res.PerTable["fact"].BlocksRead, factBlocks)
	}
	// Survivors = 500 rows (d ∈ 0..4 → fids 0..499).
	if got := res.SurvivingRows["fact"]; got != 500 {
		t.Errorf("survivors = %d, want 500", got)
	}
}

func TestSemiJoinReductionPrunesBlocks(t *testing.T) {
	// dim filter selects dims 0..9 (attr via id<10); fact.did values for
	// those dims appear across fact, but with fact sorted by did the
	// matching rows cluster → runtime pruning by exact keys skips blocks.
	ds := starDS(t, 100, 10000, 3)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "did", "dim": "id"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}

	q := workload.NewQuery("semi",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("id", predicate.Lt, value.Int(10)))

	plain, err := New(store, d, ds, DefaultOptions()).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New(store, d, ds, CloudDWOptions()).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if reduced.PerTable["fact"].BlocksRead >= plain.PerTable["fact"].BlocksRead {
		t.Errorf("semi-join reduction did not prune: %d vs %d",
			reduced.PerTable["fact"].BlocksRead, plain.PerTable["fact"].BlocksRead)
	}
	// The result is identical regardless of pruning.
	for alias, n := range plain.SurvivingRows {
		if reduced.SurvivingRows[alias] != n {
			t.Errorf("%s survivors differ: %d vs %d", alias, n, reduced.SurvivingRows[alias])
		}
	}
}

func TestDiPsPruneBlocks(t *testing.T) {
	// dim must span several blocks so its zone maps reflect the filter:
	// 1000 dims at block size 100 → 10 dim blocks; filter id < 10 leaves
	// only dim block 0 alive, whose zone [0, 99] becomes the diP.
	ds := starDS(t, 1000, 10000, 4)
	// fact sorted by did so diP ranges from dim blocks cluster.
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "did", "dim": "id"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	q := workload.NewQuery("dip",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("id", predicate.Lt, value.Int(10)))

	plain, err := New(store, d, ds, DefaultOptions()).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.DiPs = true
	withDips, err := New(store, d, ds, opts).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if withDips.PerTable["fact"].BlocksRead >= plain.PerTable["fact"].BlocksRead {
		t.Errorf("diPs did not prune: %d vs %d",
			withDips.PerTable["fact"].BlocksRead, plain.PerTable["fact"].BlocksRead)
	}
	for alias, n := range plain.SurvivingRows {
		if withDips.SurvivingRows[alias] != n {
			t.Errorf("%s survivors differ under diPs", alias)
		}
	}
}

func TestResultLayoutInvariance(t *testing.T) {
	ds := starDS(t, 100, 10000, 5)
	queries := []*workload.Query{
		joinQuery("a", 1),
		joinQuery("b", 7, predicate.NewComparison("v", predicate.Lt, value.Int(200))),
	}
	// Layout 1: fact by d. Layout 2: fact by v.
	layouts := []layout.SortKeys{
		{"fact": "d", "dim": "id"},
		{"fact": "v", "dim": "attr"},
	}
	var results [][]map[string]int
	for _, keys := range layouts {
		d, err := layout.SortKeyDesign(ds, keys, 500)
		if err != nil {
			t.Fatal(err)
		}
		store := colstore.NewMemStore(block.DefaultCostModel())
		if _, err := d.Install(store, nil, 0); err != nil {
			t.Fatal(err)
		}
		e := New(store, d, ds, CloudDWOptions())
		var rs []map[string]int
		for _, q := range queries {
			res, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, res.SurvivingRows)
		}
		results = append(results, rs)
	}
	for qi := range queries {
		for alias, n := range results[0][qi] {
			if results[1][qi][alias] != n {
				t.Errorf("query %d alias %s: %d vs %d across layouts",
					qi, alias, n, results[1][qi][alias])
			}
		}
	}
}

func TestJoinSemantics(t *testing.T) {
	// Tiny hand-built dataset for precise semantics.
	ds := relation.NewDataset()
	l := relation.NewTable(relation.MustSchema("L",
		relation.Column{Name: "k", Type: value.KindInt},
	))
	r := relation.NewTable(relation.MustSchema("R",
		relation.Column{Name: "k", Type: value.KindInt},
	))
	for _, v := range []int64{1, 2, 3, 4} {
		l.MustAppendRow(value.Int(v))
	}
	for _, v := range []int64{3, 4, 5} {
		r.MustAppendRow(value.Int(v))
	}
	ds.MustAddTable(l)
	ds.MustAddTable(r)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	e := New(store, d, ds, DefaultOptions())

	cases := []struct {
		jt           workload.JoinType
		wantL, wantR int
	}{
		{workload.InnerJoin, 2, 2},         // {3,4} both sides
		{workload.SemiJoin, 2, 2},          // same reduction
		{workload.LeftOuterJoin, 4, 2},     // L preserved, R reduced
		{workload.RightOuterJoin, 2, 3},    // R preserved, L reduced
		{workload.FullOuterJoin, 4, 3},     // both preserved
		{workload.LeftAntiSemiJoin, 2, 3},  // L keeps {1,2}, R untouched
		{workload.RightAntiSemiJoin, 4, 1}, // R keeps {5}, L untouched
	}
	for _, c := range cases {
		q := workload.NewQuery("jt",
			workload.TableRef{Table: "L"},
			workload.TableRef{Table: "R"},
		)
		q.AddTypedJoin(workload.Join{
			Left: "L", LeftColumn: "k", Right: "R", RightColumn: "k", Type: c.jt,
		})
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.SurvivingRows["L"] != c.wantL || res.SurvivingRows["R"] != c.wantR {
			t.Errorf("%s: survivors L=%d R=%d, want L=%d R=%d",
				c.jt, res.SurvivingRows["L"], res.SurvivingRows["R"], c.wantL, c.wantR)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	ds := starDS(t, 10, 100, 6)
	store, design := installBaseline(t, ds, 50)
	e := New(store, design, ds, DefaultOptions())

	bad := workload.NewQuery("bad", workload.TableRef{Table: "nope"})
	if _, err := e.Execute(bad); err == nil {
		t.Error("unknown table accepted")
	}
	invalid := workload.NewQuery("inv", workload.TableRef{Table: "dim"})
	invalid.Weight = -1
	if _, err := e.Execute(invalid); err == nil {
		t.Error("invalid query accepted")
	}
}

// vanishingBackend answers plan-time metadata from the wrapped store but
// finds no layout when the named compile step runs — a table whose layout
// was dropped between plan and compile.
type vanishingBackend struct {
	block.Backend
	noScan, noFold bool
}

func (b *vanishingBackend) CompileScan(table string, filters []predicate.Predicate) block.Scan {
	if b.noScan {
		return nil
	}
	return b.Backend.CompileScan(table, filters)
}

func (b *vanishingBackend) CompileFold(table string, group block.GroupKey, aggs []workload.Aggregate) block.Fold {
	if b.noFold {
		return nil
	}
	return b.Backend.CompileFold(table, group, aggs)
}

// TestVanishedLayoutFailsOneQuery: a nil CompileScan or CompileFold is a
// clean per-query error, never a panic or a silently empty result.
func TestVanishedLayoutFailsOneQuery(t *testing.T) {
	ds := starDS(t, 10, 100, 6)
	store, design := installBaseline(t, ds, 50)
	scan := joinQuery("scan", 3)
	flat := joinQuery("flat", 3).Aggregate(workload.AggSum, "fact", "v")
	grouped := joinQuery("grouped", 3).Aggregate(workload.AggCount, "fact", "").GroupByCol("fact", "d")
	for _, tc := range []struct {
		name    string
		backend *vanishingBackend
		q       *workload.Query
	}{
		{"scan", &vanishingBackend{Backend: store, noScan: true}, scan},
		{"flat-aggregate", &vanishingBackend{Backend: store, noFold: true}, flat},
		{"group-by", &vanishingBackend{Backend: store, noFold: true}, grouped},
	} {
		e := New(tc.backend, design, ds, DefaultOptions())
		_, err := e.Execute(tc.q)
		if err == nil || !strings.HasPrefix(err.Error(), `engine: no layout installed for "`) {
			t.Errorf("%s: err = %v, want engine: no layout installed", tc.name, err)
		}
	}
	// The fold is compiled only for queries that aggregate.
	e := New(&vanishingBackend{Backend: store, noFold: true}, design, ds, DefaultOptions())
	if _, err := e.Execute(scan); err != nil {
		t.Errorf("scan-only query on a fold-less backend: %v", err)
	}
}

func TestMergeRanges(t *testing.T) {
	mk := func(lo, hi int64) predicate.Interval {
		return predicate.NewInterval(value.Int(lo), value.Int(hi), true, true)
	}
	// Overlapping intervals merge.
	got := mergeRanges([]predicate.Interval{mk(0, 10), mk(5, 20), mk(40, 50)}, 20)
	if len(got) != 2 {
		t.Fatalf("merged = %v", got)
	}
	if got[0].Max.Int() != 20 || got[1].Min.Int() != 40 {
		t.Errorf("merged = %v", got)
	}
	// Coalescing to k.
	var many []predicate.Interval
	for i := int64(0); i < 100; i++ {
		many = append(many, mk(i*10, i*10+1))
	}
	got = mergeRanges(many, 20)
	if len(got) > 20 {
		t.Errorf("coalesce produced %d ranges", len(got))
	}
	if got := mergeRanges(nil, 5); got != nil {
		t.Error("empty input should give nil")
	}
}

func TestAnyKeyInInterval(t *testing.T) {
	keys := []value.Value{value.Int(5), value.Int(10), value.Int(20)}
	iv := func(lo, hi int64, loInc, hiInc bool) predicate.Interval {
		return predicate.NewInterval(value.Int(lo), value.Int(hi), loInc, hiInc)
	}
	if !anyKeyInInterval(keys, iv(8, 12, true, true)) {
		t.Error("10 in [8,12]")
	}
	if anyKeyInInterval(keys, iv(11, 19, true, true)) {
		t.Error("nothing in [11,19]")
	}
	if anyKeyInInterval(keys, iv(10, 20, false, false)) {
		t.Error("exclusive (10,20) contains no key")
	}
	if !anyKeyInInterval(keys, predicate.Unbounded()) {
		t.Error("unbounded contains keys")
	}
	if anyKeyInInterval(nil, predicate.Unbounded()) {
		t.Error("no keys → false")
	}
	if anyKeyInInterval(keys, predicate.Interval{Empty: true}) {
		t.Error("empty interval → false")
	}
}

func TestSecondaryIndexPruning(t *testing.T) {
	// fact sorted by an unrelated column: join keys are scattered, so
	// zone-interval pruning (semi-join reduction) cannot skip blocks —
	// but a secondary index on the join column still can.
	ds := starDS(t, 1000, 20000, 7)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "v", "dim": "id"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	q := workload.NewQuery("si",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	// A mid-domain key: every v-sorted block's did zone interval contains
	// it, so zone-based reduction prunes nothing, while the index knows
	// which ~20 blocks actually hold matching rows.
	q.Filter("dim", predicate.NewComparison("id", predicate.Eq, value.Int(500)))

	semi, err := New(store, d, ds, CloudDWOptions()).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	siOpts := DefaultOptions()
	siOpts.SecondaryIndexes = map[string]string{"fact": "did"}
	si, err := New(store, d, ds, siOpts).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// ~3/1000 of fact rows match: the SI reads only their blocks.
	if si.PerTable["fact"].BlocksRead >= semi.PerTable["fact"].BlocksRead {
		t.Errorf("SI (%d blocks) should beat zone-based reduction (%d)",
			si.PerTable["fact"].BlocksRead, semi.PerTable["fact"].BlocksRead)
	}
	// The result is unchanged.
	for alias, n := range semi.SurvivingRows {
		if si.SurvivingRows[alias] != n {
			t.Errorf("%s survivors differ under SI", alias)
		}
	}
	// SI on a non-key column type falls back gracefully.
	badOpts := DefaultOptions()
	badOpts.SecondaryIndexes = map[string]string{"fact": "nope"}
	if _, err := New(store, d, ds, badOpts).Execute(q); err != nil {
		t.Fatal(err)
	}
}

// TestUnrelatedSINotCharged is the regression test for reducer accounting:
// configuring a secondary index on a column that no join edge uses must not
// charge SemiJoinSetupSeconds — no reducer is actually built.
func TestUnrelatedSINotCharged(t *testing.T) {
	ds := starDS(t, 100, 10000, 9)
	store, design := installBaseline(t, ds, 500)
	q := joinQuery("q", 3)

	plain, err := New(store, design, ds, DefaultOptions()).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// SI on fact.v, but the join is on fact.did: runtimeBlockPrune runs
	// (the SI option enables it) yet builds nothing.
	unrelated := DefaultOptions()
	unrelated.SecondaryIndexes = map[string]string{"fact": "v"}
	withSI, err := New(store, design, ds, unrelated).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Seconds != withSI.Seconds {
		t.Errorf("unrelated SI changed cost: %v vs %v (phantom reducer charged)",
			plain.Seconds, withSI.Seconds)
	}
	if plain.BlocksRead != withSI.BlocksRead {
		t.Errorf("unrelated SI changed I/O: %d vs %d", plain.BlocksRead, withSI.BlocksRead)
	}
}

// TestUnknownJoinColumnIsNoOp is the regression test for keysOf's nil
// return: a join column missing from the materialized side's schema must
// make runtime pruning a no-op, not prune every candidate block.
func TestUnknownJoinColumnIsNoOp(t *testing.T) {
	ds := starDS(t, 100, 10000, 10)
	store, design := installBaseline(t, ds, 500)
	q := workload.NewQuery("badcol",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	// dim has no column "nope": the dim side materializes first and its
	// key set for the edge is unknowable.
	q.AddJoin("dim", "nope", "fact", "did")
	q.Filter("dim", predicate.NewComparison("id", predicate.Lt, value.Int(10)))

	plain, err := New(store, design, ds, DefaultOptions()).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		CloudDWOptions(),
		{SemiJoinReduction: false, SecondaryIndexes: map[string]string{"fact": "did"}},
	} {
		pruned, err := New(store, design, ds, opts).Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pruned.PerTable["fact"].BlocksRead, plain.PerTable["fact"].BlocksRead; got != want {
			t.Errorf("opts %+v: unknown join column pruned fact to %d blocks, want %d (no-op)",
				opts, got, want)
		}
	}
}

// TestMergeRangesMixedKinds is the regression test for hull with
// non-comparable bounds: coalescing intervals of different value kinds must
// widen to unbounded (conservative) rather than keep one side's bound —
// and must not panic inside Interval.Intersect.
func TestMergeRangesMixedKinds(t *testing.T) {
	ints := func(lo, hi int64) predicate.Interval {
		return predicate.NewInterval(value.Int(lo), value.Int(hi), true, true)
	}
	strs := func(lo, hi string) predicate.Interval {
		return predicate.NewInterval(value.String(lo), value.String(hi), true, true)
	}
	mixed := []predicate.Interval{ints(0, 10), ints(5, 20), strs("a", "m"), strs("p", "z")}

	// Without coalescing pressure the kinds stay separate.
	got := mergeRanges(append([]predicate.Interval(nil), mixed...), 10)
	if len(got) != 3 {
		t.Fatalf("phase-1 merge = %v, want 3 ranges", got)
	}

	// Forcing k=1 merges across kinds: the hull must be unbounded on both
	// sides so no value covered by either input can escape it.
	got = mergeRanges(append([]predicate.Interval(nil), mixed...), 1)
	if len(got) != 1 {
		t.Fatalf("coalesced = %v, want 1 range", got)
	}
	if !got[0].Min.IsNull() || !got[0].Max.IsNull() {
		t.Errorf("mixed-kind hull = %v, want unbounded", got[0])
	}
	for _, v := range []value.Value{value.Int(-5), value.Int(100), value.String("zz")} {
		if !got[0].Contains(v) {
			t.Errorf("conservative hull excludes %v", v)
		}
	}

	// Direct hull check: a's bound must not survive a non-comparable merge.
	h := predicate.Hull(ints(1, 10), strs("a", "z"))
	if !h.Min.IsNull() || !h.Max.IsNull() {
		t.Errorf("hull(int, string) = %v, want unbounded", h)
	}
}

func TestPruningStageAccounting(t *testing.T) {
	ds := starDS(t, 1000, 10000, 8)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "did", "dim": "id"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	q := workload.NewQuery("stages",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("id", predicate.Lt, value.Int(10)))
	q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int(1000)))

	opts := CloudDWOptions()
	opts.DiPs = true
	res, err := New(store, d, ds, opts).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, ta := range res.PerTable {
		if ta.AfterRouting < ta.AfterZoneMap || ta.AfterZoneMap < ta.AfterDiPs ||
			ta.AfterDiPs < ta.BlocksRead {
			t.Errorf("%s: stages not monotone: routing=%d zone=%d dips=%d read=%d",
				ta.Table, ta.AfterRouting, ta.AfterZoneMap, ta.AfterDiPs, ta.BlocksRead)
		}
	}
	fact := res.PerTable["fact"]
	if fact.AfterRouting != fact.TotalBlocks {
		t.Errorf("sort layout routing should return all blocks: %d vs %d",
			fact.AfterRouting, fact.TotalBlocks)
	}
	if fact.AfterDiPs >= fact.AfterZoneMap {
		t.Errorf("diPs should prune the did-sorted fact: %d vs %d",
			fact.AfterDiPs, fact.AfterZoneMap)
	}
}
