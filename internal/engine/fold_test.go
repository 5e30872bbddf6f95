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
// from it, the survivor set and the group column.
type foldCase struct {
	Seed     int64
	Nulls    uint8 // 0 no nulls, 1 some, 2 every value null
	Special  bool  // floats include NaN, ±0 and ±Inf
	Empty    bool  // no survivors
	Overflow bool  // int values large enough for sums to overflow
	Group    uint8 // 0 ungrouped, 1 int dict, 2 string dict, 3 float (no dict)
}

func (c foldCase) String() string {
	return fmt.Sprintf("seed=%d nulls=%d special=%v empty=%v overflow=%v group=%d",
		c.Seed, c.Nulls, c.Special, c.Empty, c.Overflow, c.Group)
}

// foldCases is the table: every null mode, float special, survivor shape,
// int magnitude and group column.
func foldCases() []foldCase {
	var cases []foldCase
	for nulls := uint8(0); nulls < 3; nulls++ {
		for _, special := range []bool{false, true} {
			for _, empty := range []bool{false, true} {
				for _, overflow := range []bool{false, true} {
					for group := uint8(0); group < 4; group++ {
						cases = append(cases, foldCase{Seed: int64(len(cases)), Nulls: nulls,
							Special: special, Empty: empty, Overflow: overflow, Group: group})
					}
				}
			}
		}
	}
	return cases
}

// foldTable builds table t(i, f, s, gi, gs, gf) for c: rows is a few
// words, and the survivor set (all clear when c.Empty) has two full words
// so the pass's word-run path runs.
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
	if !c.Empty {
		for r := 0; r < rows; r++ {
			if (r >= 64 && r < 192) || rng.Intn(10) < 7 {
				set.Set(r)
			}
		}
	}
	return ds, tbl, set
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

// checkFoldCase folds specs over c's table in the row-order pass and in
// the oracle and requires bit-identical results, or the same error.
func checkFoldCase(t *testing.T, c foldCase, rows int, specs []workload.Aggregate) {
	t.Helper()
	ds, tbl, set := foldTable(c, rows)
	e := New(nil, nil, ds, DefaultOptions())
	var gb workload.GroupBy
	if c.Group > 0 {
		gb = workload.GroupBy{Alias: "t", Column: []string{"gi", "gs", "gf"}[c.Group-1]}
	}
	got, gotErr := e.foldMaterialized("t", tbl, set, gb, specs)
	want, wantErr := oracleFold(e, "t", tbl, set, gb, specs)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", c, gotErr, wantErr)
	}
	if !reflect.DeepEqual(exactAggs(got), exactAggs(want)) {
		t.Fatalf("%s: row-order pass diverges from the oracle:\n got %v\nwant %v", c, got, want)
	}
}

// TestMaterializedFoldMatchesOracle pins the row-order pass to the
// row-at-a-time oracle bit for bit over kinds × ops × {no, some, all}
// nulls × {NaN, ±0, ±Inf} floats × empty survivor sets × int overflow ×
// group column {int dict, string dict, float without dict}.
func TestMaterializedFoldMatchesOracle(t *testing.T) {
	specs := foldSpecs()
	for _, c := range foldCases() {
		checkFoldCase(t, c, 300, specs)
	}
}

// TestMaterializedFoldOverflowNamesFirstSpec pins the overflow rule: when
// several integer sums overflow, the error names the first overflowing
// aggregate in declaration order (the pass folds each aggregate's chunk
// in turn, so it cannot tell which overflowed at an earlier row).
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
		_, err := e.foldMaterialized("t", tbl, set, gb, ordered)
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
		f.Add(c.Seed, c.Nulls, c.Special, c.Empty, c.Overflow, c.Group, uint16(300))
	}
	specs := foldSpecs()
	f.Fuzz(func(t *testing.T, seed int64, nulls uint8, special, empty, overflow bool, group uint8, rows uint16) {
		c := foldCase{Seed: seed, Nulls: nulls % 3, Special: special, Empty: empty,
			Overflow: overflow, Group: group % 4}
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
