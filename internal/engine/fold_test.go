package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/datagen"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// foldCase is one row-order fold test case: the table foldTable builds
// from it, the survivor set, the layout the survivors are positions of
// and the group column.
type foldCase struct {
	Seed     int64
	Nulls    uint8 // 0 no nulls, 1 some, 2 every value null
	Special  bool  // floats include NaN, ±0 and ±Inf
	Empty    bool  // no survivors
	Sparse   bool  // survivors below the dense cut (1/denseFoldDivisor of the rows)
	Overflow bool  // int values large enough for sums to overflow
	Group    uint8 // 0 ungrouped, 1 int dict, 2 string dict, 3 float (no dict)
	Shuffle  bool  // layout blocks hold a permutation of the rows, not runs in row order
}

func (c foldCase) String() string {
	return fmt.Sprintf("seed=%d nulls=%d special=%v empty=%v sparse=%v overflow=%v group=%d shuffle=%v",
		c.Seed, c.Nulls, c.Special, c.Empty, c.Sparse, c.Overflow, c.Group, c.Shuffle)
}

// foldCases is the table: every null mode, float special, survivor shape
// and density, int magnitude, group column and layout.
func foldCases() []foldCase {
	var cases []foldCase
	for nulls := uint8(0); nulls < 3; nulls++ {
		for _, special := range []bool{false, true} {
			for _, empty := range []bool{false, true} {
				for _, sparse := range []bool{false, true} {
					if empty && sparse {
						continue
					}
					for _, overflow := range []bool{false, true} {
						for group := uint8(0); group < 4; group++ {
							for _, shuffle := range []bool{false, true} {
								cases = append(cases, foldCase{Seed: int64(len(cases)), Nulls: nulls,
									Special: special, Empty: empty, Sparse: sparse, Overflow: overflow,
									Group: group, Shuffle: shuffle})
							}
						}
					}
				}
			}
		}
	}
	return cases
}

// foldTable builds table t(i, f, s, gi, gs, gf) for c: rows is a few
// words, and the survivor set (all clear when c.Empty) has two full words
// so the pass's word-run path runs, or, when c.Sparse, about one row in
// sixteen.
func foldTable(c foldCase, rows int) (*relation.Dataset, *relation.Table, bitmap.Dense) {
	rng := rand.New(rand.NewSource(c.Seed))
	tbl := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "i", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
		relation.Column{Name: "gi", Type: value.KindInt},
		relation.Column{Name: "gs", Type: value.KindString},
		relation.Column{Name: "gf", Type: value.KindFloat},
	))
	null := func() bool { return c.Nulls == 2 || (c.Nulls == 1 && rng.Intn(5) == 0) }
	// With specials, floats draw from NaN, ±0 and one finite value and one
	// infinity of a sign set by the seed, so zeros decide MIN (or MAX) and
	// their order shows.
	sign := float64(1 - 2*(c.Seed&1))
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5 * sign, math.Inf(int(sign))}
	float := func(v float64) value.Value {
		if c.Special {
			v = specials[rng.Intn(len(specials))]
		}
		return value.Float(v)
	}
	for r := 0; r < rows; r++ {
		row := []value.Value{
			value.Int(rng.Int63n(2001) - 1000),
			float(rng.Float64()*200 - 100),
			value.String(fmt.Sprintf("s%02d", rng.Intn(40))),
			value.Int(int64(rng.Intn(5)) - 2),
			value.String([]string{"A", "N", "R"}[rng.Intn(3)]),
			float([]float64{-1.5, 2, 3.25}[rng.Intn(3)]),
		}
		if c.Overflow {
			row[0] = value.Int(math.MaxInt64/3 + rng.Int63n(1000))
			if rng.Intn(2) == 0 {
				row[0] = value.Int(-row[0].Int())
			}
		}
		for k := range row {
			if null() {
				row[k] = value.Null
			}
		}
		tbl.MustAppendRow(row...)
	}
	ds := relation.NewDataset()
	ds.MustAddTable(tbl)
	set := bitmap.NewDense(rows)
	switch {
	case c.Empty:
	case c.Sparse:
		for r := 0; r < rows; r++ {
			if rng.Intn(16) == 0 {
				set.Set(r)
			}
		}
	default:
		for r := 0; r < rows; r++ {
			if (r >= 64 && r < 192) || rng.Intn(10) < 7 {
				set.Set(r)
			}
		}
	}
	return ds, tbl, set
}

// foldLayout lays out tbl's rows for c — runs of 100 rows in row order,
// or a permutation in blocks of 1 to 100 rows — and returns the layout
// and set's rows as positions of it.
func foldLayout(c foldCase, tbl *relation.Table, set bitmap.Dense) (*block.RowOrder, bitmap.Dense) {
	rng := rand.New(rand.NewSource(c.Seed))
	rows := make([]int32, tbl.NumRows())
	for r := range rows {
		rows[r] = int32(r)
	}
	if c.Shuffle {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	var blocks [][]int32
	for off := 0; off < len(rows); {
		n := 100
		if c.Shuffle {
			n = 1 + rng.Intn(100)
		}
		end := min(off+n, len(rows))
		blocks = append(blocks, rows[off:end])
		off = end
	}
	order := block.NewRowOrder(blocks)
	pos := bitmap.NewDense(len(order.Rows))
	for p, r := range order.Rows {
		if r >= 0 && set.Get(int(r)) {
			pos.Set(p)
		}
	}
	return order, pos
}

// foldSpecs is every aggregate the engine accepts over t's i, f and s.
func foldSpecs() []workload.Aggregate {
	specs := []workload.Aggregate{{Op: workload.AggCount, Alias: "t"}}
	for _, col := range []string{"i", "f", "s"} {
		for _, op := range []workload.AggOp{workload.AggCount, workload.AggSum, workload.AggAvg,
			workload.AggMin, workload.AggMax} {
			if col != "s" || (op != workload.AggSum && op != workload.AggAvg) {
				specs = append(specs, workload.Aggregate{Op: op, Alias: "t", Column: col})
			}
		}
	}
	return specs
}

// exactValue is a Value with its float as bits, so NaN results compare
// equal to themselves and -0 differs from +0 under reflect.DeepEqual.
type exactValue struct {
	Kind value.Kind
	Int  int64
	Bits uint64
	Str  string
}

func exact(v value.Value) exactValue {
	switch v.Kind() {
	case value.KindInt:
		return exactValue{Kind: v.Kind(), Int: v.Int()}
	case value.KindFloat:
		return exactValue{Kind: v.Kind(), Bits: math.Float64bits(v.Float())}
	case value.KindString:
		return exactValue{Kind: v.Kind(), Str: v.Str()}
	}
	return exactValue{}
}

type exactAgg struct {
	Spec    workload.Aggregate
	Value   exactValue
	GroupBy workload.GroupBy
	Groups  [][2]exactValue
}

func exactAggs(avs []AggValue) []exactAgg {
	out := make([]exactAgg, len(avs))
	for i, av := range avs {
		out[i] = exactAgg{Spec: av.Spec, Value: exact(av.Value), GroupBy: av.GroupBy}
		for _, g := range av.Groups {
			out[i].Groups = append(out[i].Groups, [2]exactValue{exact(g.Key), exact(g.Value)})
		}
	}
	return out
}

// foldSpecOf resolves specs over table of tbl, grouped by gb, as bind
// does, with bind's error for a shape it refuses.
func foldSpecOf(table string, tbl *relation.Table, gb workload.GroupBy, specs []workload.Aggregate) (*foldSpec, error) {
	f := &foldSpec{table: table, tbl: tbl, specs: specs, group: gb}
	for _, spec := range specs {
		col, err := aggColumnKind(tbl, spec)
		if err != nil {
			return nil, err
		}
		f.cols = append(f.cols, col)
	}
	if !gb.IsZero() {
		f.groupOrd = tbl.Schema().MustColumnIndex(gb.Column)
	}
	return f, nil
}

// checkFoldCase folds specs over c's table in the row-order pass, from a
// base-row set and from the same survivors as positions of c's layout,
// and in the oracle, and requires bit-identical results, or the same
// error. The positions take the layout's slot lists exactly when the
// fold is grouped on a dictionary column at or above the dense cut.
func checkFoldCase(t *testing.T, c foldCase, rows int, specs []workload.Aggregate) {
	t.Helper()
	ds, tbl, set := foldTable(c, rows)
	e := New(nil, nil, ds, DefaultOptions())
	var gb workload.GroupBy
	if c.Group > 0 {
		gb = workload.GroupBy{Alias: "t", Column: []string{"gi", "gs", "gf"}[c.Group-1]}
	}
	want, wantErr := oracleFold(e, "t", tbl, set, gb, specs)
	order, pos := foldLayout(c, tbl, set)
	count := set.Count()
	for _, src := range []struct {
		name string
		fold func() ([]AggValue, error)
	}{
		{"base rows", func() ([]AggValue, error) {
			fs, err := foldSpecOf("t", tbl, gb, specs)
			if err != nil {
				return nil, err
			}
			return e.foldMaterialized(fs, set)
		}},
		{"positions", func() ([]AggValue, error) {
			fs, err := foldSpecOf("t", tbl, gb, specs)
			if err != nil {
				return nil, err
			}
			return e.foldPositions(fs, pos, order, count)
		}},
	} {
		got, gotErr := src.fold()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s, from %s: error %v, oracle %v", c, src.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(exactAggs(got), exactAggs(want)) {
			t.Fatalf("%s, from %s: row-order pass diverges from the oracle:\n got %v\nwant %v", c, src.name, got, want)
		}
	}
	dense := c.Group == 1 || c.Group == 2
	dense = dense && count*denseFoldDivisor >= rows
	if _, ok := e.groups[colKey{"t", gb.Column}]; ok != dense {
		t.Fatalf("%s: %d of %d rows survive, slot lists read %v", c, count, rows, ok)
	}
}

// TestMaterializedFoldMatchesOracle pins the row-order pass, from both
// row sources, to the row-at-a-time oracle bit for bit over kinds × ops ×
// {no, some, all} nulls × {NaN, ±0, ±Inf} floats × {dense, sparse, empty}
// survivor sets × int overflow × group column {int dict, string dict,
// float without dict} × layouts in row order or permuted.
func TestMaterializedFoldMatchesOracle(t *testing.T) {
	specs := foldSpecs()
	for _, c := range foldCases() {
		checkFoldCase(t, c, 300, specs)
	}
}

// TestMaterializedFoldAcrossWindows runs grouped cases over tables of two
// fold windows, so every slot's rows span segments and both row sources
// must carry each slot's state from one window to the next.
func TestMaterializedFoldAcrossWindows(t *testing.T) {
	specs := foldSpecs()
	for _, c := range foldCases() {
		if c.Nulls == 1 && !c.Overflow && c.Group > 0 && !c.Empty {
			checkFoldCase(t, c, 1<<foldWindowShift+300, specs)
		}
	}
}

// TestMaterializedFoldOverflowNamesFirstSpec pins the overflow rule: when
// several integer sums overflow, the error names the first overflowing
// aggregate in declaration order (the pass folds run by run, each
// aggregate over one slot's run in turn, so it cannot tell which
// overflowed at an earlier row).
func TestMaterializedFoldOverflowNamesFirstSpec(t *testing.T) {
	c := foldCase{Seed: 1, Overflow: true, Group: 1}
	specs := []workload.Aggregate{
		{Op: workload.AggSum, Alias: "t", Column: "f"},
		{Op: workload.AggAvg, Alias: "t", Column: "i"},
		{Op: workload.AggSum, Alias: "t", Column: "i"},
	}
	ds, tbl, set := foldTable(c, 300)
	e := New(nil, nil, ds, DefaultOptions())
	gb := workload.GroupBy{Alias: "t", Column: "gi"}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}} {
		ordered := []workload.Aggregate{specs[order[0]], specs[order[1]], specs[order[2]]}
		fs, err := foldSpecOf("t", tbl, gb, ordered)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.foldMaterialized(fs, set)
		if want := ordered[1].String() + ": int64 sum overflow"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("specs %v: error %v, want one naming %s", ordered, err, ordered[1])
		}
	}
	checkFoldCase(t, c, 300, specs)
}

// FuzzMaterializedFold runs arbitrary table cases, seeded from the
// TestMaterializedFoldMatchesOracle table, through the row-order pass and
// the oracle.
func FuzzMaterializedFold(f *testing.F) {
	for _, c := range foldCases() {
		f.Add(c.Seed, c.Nulls, c.Special, c.Empty, c.Sparse, c.Overflow, c.Group, c.Shuffle, uint16(300))
	}
	specs := foldSpecs()
	f.Fuzz(func(t *testing.T, seed int64, nulls uint8, special, empty, sparse, overflow bool, group uint8,
		shuffle bool, rows uint16) {
		c := foldCase{Seed: seed, Nulls: nulls % 3, Special: special, Empty: empty, Sparse: sparse,
			Overflow: overflow, Group: group % 4, Shuffle: shuffle}
		checkFoldCase(t, c, int(rows%1024), specs)
	})
}

// TestGroupByFloatNaNIsOneGroup is the regression test for GROUP BY a
// float column holding NaN: NaN ≠ NaN, so a value-keyed map made every
// NaN row its own group, ordered by map iteration. All NaN rows form one
// group, sorted after every number, on both execution paths and on every
// run.
func TestGroupByFloatNaNIsOneGroup(t *testing.T) {
	tbl := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "id", Type: value.KindInt},
		relation.Column{Name: "g", Type: value.KindFloat},
	))
	for r := 0; r < 1000; r++ {
		g := value.Float(float64(r%3) - 1) // -1, 0, 1
		switch {
		case r%10 == 0:
			g = value.Float(math.NaN())
		case r%97 == 0:
			g = value.Null
		}
		tbl.MustAppendRow(value.Int(int64(r)), g)
	}
	ds := relation.NewDataset()
	ds.MustAddTable(tbl)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"t": "id"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	q := workload.NewQuery("nan", workload.TableRef{Table: "t"})
	q.Aggregate(workload.AggCount, "t", "")
	q.GroupByCol("t", "g")
	want := `count(t.*) by t.g={NULL:9, -1:297, 0:297, 1:297, NaN:100}`
	for run := 0; run < 5; run++ {
		for _, exec := range []func(*Engine, *workload.Query) (*Result, error){
			(*Engine).Execute, (*Engine).ExecuteReference,
		} {
			res, err := exec(New(store, d, ds, DefaultOptions()), q)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Aggregates[0].String(); got != want {
				t.Fatalf("run %d: %s, want %s", run, got, want)
			}
		}
	}
}

// TestQ1FoldsLineitemOnce asserts the routing rule on a Q1-shaped query:
// its float aggregates send every lineitem aggregate, the int sum the
// backend could fold included, through one row-order pass, so the pass
// walks each survivor once; an all-int rollup folds in the backend and
// walks none.
func TestQ1FoldsLineitemOnce(t *testing.T) {
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.002, Seed: 1})
	d, err := layout.SortKeyDesign(ds, datagen.TPCHSortKeys(), 500)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	e := New(store, d, ds, CloudDWOptions())
	q1 := datagen.TPCHQuery(1, rand.New(rand.NewSource(1)))
	res, err := e.Execute(q1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.StatsSnapshot().MaterializedFoldRows, int64(res.SurvivingRows["lineitem"]); got != want || want == 0 {
		t.Errorf("Q1 walked %d rows in the row-order pass, want one pass over its %d survivors", got, want)
	}

	ints := datagen.TPCHQuery(1, rand.New(rand.NewSource(1)))
	ints.Aggregates = []workload.Aggregate{
		{Op: workload.AggSum, Alias: "lineitem", Column: "l_quantity"},
		{Op: workload.AggCount, Alias: "lineitem"},
	}
	before := e.StatsSnapshot()
	if _, err := e.Execute(ints); err != nil {
		t.Fatal(err)
	}
	if n := e.StatsSnapshot().Sub(before).MaterializedFoldRows; n != 0 {
		t.Errorf("all-int rollup walked %d rows in the row-order pass, want 0", n)
	}
}

// BenchmarkRowOrderFold times the row-order pass over TPC-H SF 0.05
// lineitem, laid out by l_shipdate in blocks of 1 000 rows, from each row
// source: "lists" filters the slot lists through the position set
// (foldSlotLists), "decode" maps the survivors to base rows and slots
// them (baseRows + foldMaterialized). "dense" is Q1's fold (l_shipdate ≤
// 1998-09-02, four aggregates by l_returnflag, ~98 % of the rows);
// "half", "quarter" and "eighth" fold Q1's aggregates over every second,
// fourth and eighth base row of it; "sparse" is Q10's (l_returnflag = 'R'
// in orders of one quarter, two aggregates by l_shipmode, ~2 %). ns/row
// is per survivor; the slot lists are built before the timer starts.
func BenchmarkRowOrderFold(b *testing.B) {
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.05, Seed: 1})
	d, err := layout.SortKeyDesign(ds, datagen.TPCHSortKeys(), 1000)
	if err != nil {
		b.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		b.Fatal(err)
	}
	order, err := store.CompileScan("lineitem", nil).RowOrder()
	if err != nil {
		b.Fatal(err)
	}
	li, orders := ds.Table("lineitem"), ds.Table("orders")
	col := func(t *relation.Table, name string) int {
		ci, ok := t.Schema().ColumnIndex(name)
		if !ok {
			b.Fatalf("no column %s", name)
		}
		return ci
	}
	ship, flag := li.Ints(col(li, "l_shipdate")), li.Strings(col(li, "l_returnflag"))
	okey, odate := li.Ints(col(li, "l_orderkey")), orders.Ints(col(orders, "o_orderdate"))
	q1Cut := value.MustDate("1998-09-02").Int()
	q10From := value.MustDate("1993-10-01").Int()
	agg := func(op workload.AggOp, c string) workload.Aggregate {
		return workload.Aggregate{Op: op, Alias: "lineitem", Column: c}
	}
	q1 := []workload.Aggregate{
		agg(workload.AggSum, "l_quantity"), agg(workload.AggSum, "l_extendedprice"),
		agg(workload.AggAvg, "l_discount"), agg(workload.AggCount, "")}
	for _, c := range []struct {
		name  string
		keep  func(r int) bool
		gb    string
		specs []workload.Aggregate
	}{
		{"dense", func(r int) bool { return ship[r] <= q1Cut }, "l_returnflag", q1},
		{"half", func(r int) bool { return ship[r] <= q1Cut && r%2 == 0 }, "l_returnflag", q1},
		{"quarter", func(r int) bool { return ship[r] <= q1Cut && r%4 == 0 }, "l_returnflag", q1},
		{"eighth", func(r int) bool { return ship[r] <= q1Cut && r%8 == 0 }, "l_returnflag", q1},
		{"sparse", func(r int) bool {
			od := odate[okey[r]-1] // orders are generated in key order from 1
			return flag[r] == "R" && od >= q10From && od <= q10From+90
		}, "l_shipmode", []workload.Aggregate{
			agg(workload.AggSum, "l_extendedprice"), agg(workload.AggMax, "l_shipmode")}},
	} {
		set := bitmap.NewDense(len(order.Rows))
		count := 0
		for p, r := range order.Rows {
			if r >= 0 && c.keep(int(r)) {
				set.Set(p)
				count++
			}
		}
		e := New(store, d, ds, DefaultOptions())
		fs, err := foldSpecOf("lineitem", li, workload.GroupBy{Alias: "lineitem", Column: c.gb}, c.specs)
		if err != nil {
			b.Fatal(err)
		}
		e.slotListsFor("lineitem", c.gb, order)
		for _, src := range []struct {
			name string
			fold func() ([]AggValue, error)
		}{
			{"lists", func() ([]AggValue, error) {
				return e.foldSlotLists(fs, set, order)
			}},
			{"decode", func() ([]AggValue, error) {
				rows := grabDense(li.NumRows())
				defer putDense(rows)
				baseRows(set, order, rows.dense())
				return e.foldMaterialized(fs, rows.dense())
			}},
		} {
			b.Run(c.name+"/"+src.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := src.fold(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(count), "ns/row")
				b.ReportMetric(float64(count)/float64(li.NumRows()), "survivor-frac")
			})
		}
	}
}
