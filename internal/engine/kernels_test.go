package engine

import (
	"math"
	"reflect"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// probesOf back-solves the join-probe count from the simulated Seconds of a
// result executed with zero reducers (DefaultOptions): every other term of
// the cost model is reconstructible from the per-table metrics.
func probesOf(t *testing.T, store *colstore.Store, res *Result) int {
	t.Helper()
	cost := store.Cost()
	s := res.Seconds - cost.QueryOverheadSeconds
	for _, ta := range res.PerTable {
		s -= float64(ta.BlocksRead)*cost.BlockReadSeconds +
			float64(ta.RowsScanned)*cost.TupleScanSeconds
	}
	return int(math.Round(s / cost.TupleJoinSeconds))
}

// TestFullOuterJoinProbesChargedOnce is the regression test for the cost
// model inflating on no-op fixpoint passes: a full outer join never reduces
// either side, so its probe cost must accrue on the first pass only, not on
// every pass another edge keeps the fixpoint running.
func TestFullOuterJoinProbesChargedOnce(t *testing.T) {
	ds := relation.NewDataset()
	mk := func(name string, vals ...int64) {
		tbl := relation.NewTable(relation.MustSchema(name,
			relation.Column{Name: "k", Type: value.KindInt},
		))
		for _, v := range vals {
			tbl.MustAppendRow(value.Int(v))
		}
		ds.MustAddTable(tbl)
	}
	mk("A", 1, 2, 3)
	mk("B", 2, 3, 4)
	mk("C", 7, 8)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	q := workload.NewQuery("foj",
		workload.TableRef{Table: "A"},
		workload.TableRef{Table: "B"},
		workload.TableRef{Table: "C"},
	)
	q.AddJoin("A", "k", "B", "k") // inner: shrinks both sides on pass 0
	q.AddTypedJoin(workload.Join{
		Left: "A", LeftColumn: "k", Right: "C", RightColumn: "k",
		Type: workload.FullOuterJoin,
	})

	for _, exec := range []struct {
		name string
		run  func(*Engine, *workload.Query) (*Result, error)
	}{
		{"kernel", (*Engine).Execute},
		{"reference", (*Engine).ExecuteReference},
	} {
		e := New(store, d, ds, DefaultOptions())
		res, err := exec.run(e, q)
		if err != nil {
			t.Fatal(err)
		}
		// Pass 0: inner 3+3 probes (A,B → {2,3}), then FOJ 2+2 with A
		// already reduced. Pass 1 (rerun because pass 0 changed): inner
		// 2+2, FOJ charged nothing. Total 14; the pre-fix accounting
		// charged the FOJ again on pass 1 for 18.
		if got := probesOf(t, store, res); got != 14 {
			t.Errorf("%s: probes = %d, want 14 (FOJ charged once)", exec.name, got)
		}
		if res.SurvivingRows["A"] != 2 || res.SurvivingRows["C"] != 2 {
			t.Errorf("%s: survivors A=%d C=%d, want 2/2",
				exec.name, res.SurvivingRows["A"], res.SurvivingRows["C"])
		}
	}
}

// TestMissingJoinColumnKeepsRows is the regression test for semanticReduce
// over-pruning: a join column absent from one side's schema yields no key
// set, and reducing the other side by that nil set used to empty its rows.
// The edge must be skipped in both directions.
func TestMissingJoinColumnKeepsRows(t *testing.T) {
	ds := starDS(t, 100, 10000, 12)
	store, design := installBaseline(t, ds, 500)

	cases := []struct {
		name              string
		leftCol, rightCol string
		wantDim, wantFact int
	}{
		// dim has no "nope": the nil dim key set must not empty fact.
		{"left-missing", "nope", "did", 10, 10000},
		// fact has no "nosuch": the nil fact key set must not empty dim.
		{"right-missing", "id", "nosuch", 10, 10000},
	}
	for _, c := range cases {
		q := workload.NewQuery("badcol-"+c.name,
			workload.TableRef{Table: "dim"},
			workload.TableRef{Table: "fact"},
		)
		q.AddJoin("dim", c.leftCol, "fact", c.rightCol)
		q.Filter("dim", predicate.NewComparison("id", predicate.Lt, value.Int(10)))
		for _, opts := range []Options{DefaultOptions(), CloudDWOptions()} {
			e := New(store, design, ds, opts)
			for _, exec := range []struct {
				name string
				run  func(*workload.Query) (*Result, error)
			}{{"kernel", e.Execute}, {"reference", e.ExecuteReference}} {
				res, err := exec.run(q)
				if err != nil {
					t.Fatal(err)
				}
				if res.SurvivingRows["dim"] != c.wantDim || res.SurvivingRows["fact"] != c.wantFact {
					t.Errorf("%s/%s: survivors dim=%d fact=%d, want %d/%d (edge must be a no-op)",
						c.name, exec.name, res.SurvivingRows["dim"], res.SurvivingRows["fact"],
						c.wantDim, c.wantFact)
				}
			}
		}
	}
}

// TestSortedKeysMixedKinds pins the kind-first total order: sets mixing
// non-comparable kinds must sort without panicking, in same-kind runs.
func TestSortedKeysMixedKinds(t *testing.T) {
	set := map[value.Value]struct{}{
		value.Int(5):       {},
		value.String("m"):  {},
		value.Float(2.5):   {},
		value.Int(1):       {},
		value.String("aa"): {},
	}
	keys := sortedKeys(set)
	if len(keys) != 5 {
		t.Fatalf("len = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		ka, kb := keys[i-1].Kind(), keys[i].Kind()
		if ka > kb {
			t.Fatalf("kinds out of order at %d: %v before %v", i, keys[i-1], keys[i])
		}
		if ka == kb && keys[i].Less(keys[i-1]) {
			t.Fatalf("values out of order at %d: %v before %v", i, keys[i-1], keys[i])
		}
	}
}

// TestAnyKeyInIntervalMixedKinds pins the hardened probe: same-kind runs
// binary-search normally, non-comparable runs keep the block conservatively,
// and nothing panics.
func TestAnyKeyInIntervalMixedKinds(t *testing.T) {
	ivInt := func(lo, hi int64) *predicate.Interval {
		v := predicate.NewInterval(value.Int(lo), value.Int(hi), true, true)
		return &v
	}
	mixed := sortedKeys(map[value.Value]struct{}{
		value.Int(1): {}, value.Int(5): {}, value.Float(2.5): {}, value.String("m"): {},
	})
	if !anyKeyInInterval(mixed, ivInt(4, 6)) {
		t.Error("int key 5 in [4,6] missed")
	}
	// All-numeric keys outside an int interval: provable prune still works.
	numeric := sortedKeys(map[value.Value]struct{}{
		value.Int(1): {}, value.Float(2.5): {},
	})
	if anyKeyInInterval(numeric, ivInt(10, 20)) {
		t.Error("numeric keys wrongly kept for disjoint [10,20]")
	}
	// String-bounded interval vs int keys: not comparable, keep.
	ivStr := predicate.NewInterval(value.String("a"), value.String("z"), true, true)
	if !anyKeyInInterval(sortedKeys(map[value.Value]struct{}{value.Int(1): {}}), &ivStr) {
		t.Error("non-comparable probe must keep conservatively")
	}
	// The mixed set against the string interval: the string run decides.
	if !anyKeyInInterval(mixed, &ivStr) {
		t.Error(`"m" in ["a","z"] missed`)
	}
}

// TestAnyCodeInInterval pins the code-space zone probe to the boxed one:
// for int, float and string key sets, every subset of keys (the empty one
// included) against int, float (NaN too) and string bounds — empty, unbounded,
// half-open, open and closed — anyCodeInInterval answers what
// anyKeyInInterval answers on the same keys boxed.
func TestAnyCodeInInterval(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	columns := map[string][]value.Value{
		"int":    {value.Int(-7), value.Int(0), value.Int(5), value.Int(10), value.Int(20), value.Int(1 << 60)},
		"float":  {value.Float(-inf), value.Float(-2.5), value.Float(negZero), value.Float(5), value.Float(10.5), value.Float(inf), value.Float(math.NaN()), value.Null},
		"string": {value.String(""), value.String("b"), value.String("m"), value.String("z")},
	}
	bounds := []value.Value{value.Null,
		value.Int(-8), value.Int(0), value.Int(5), value.Int(10), value.Int(11), value.Int(1 << 60), value.Int(1<<60 + 1),
		value.Float(-inf), value.Float(-2.5), value.Float(negZero), value.Float(0), value.Float(4.999),
		value.Float(5), value.Float(10.5), value.Float(1 << 60), value.Float(inf), value.Float(math.NaN()),
		value.String("a"), value.String("b"), value.String("n"), value.String("zz"),
	}
	var ivs []predicate.Interval
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
				ivs = append(ivs, predicate.NewInterval(lo, hi, inc[0], inc[1]))
			}
		}
	}
	ivs = append(ivs, predicate.Unbounded(), predicate.Interval{Empty: true})
	for name, vals := range columns {
		tbl := relation.NewTable(relation.MustSchema(name, relation.Column{Name: "k", Type: vals[0].Kind()}))
		for _, v := range vals {
			tbl.MustAppendRow(v)
		}
		d, err := relation.BuildColumnDict(tbl, "k")
		if err != nil {
			t.Fatal(err)
		}
		n := d.NumCodes()
		for subset := 0; subset < 1<<n; subset++ {
			var codes []int32
			boxed := map[value.Value]struct{}{}
			for c := 0; c < n; c++ {
				if subset>>c&1 == 1 {
					codes = append(codes, int32(c))
					boxed[d.Value(int32(c))] = struct{}{}
				}
			}
			keys := sortedKeys(boxed)
			for i := range ivs {
				iv := &ivs[i]
				if got, want := anyCodeInInterval(d, codes, iv), anyKeyInInterval(keys, iv); got != want {
					t.Errorf("%s keys %v, %v: code probe %v, boxed probe %v", name, keys, iv, got, want)
				}
			}
		}
	}
}

// TestKernelMatchesReferenceSecondaryIndex pins the kernel to the scalar
// path under secondary-index pruning, where key sets flow into the target
// column's postings instead of zone probes.
func TestKernelMatchesReferenceSecondaryIndex(t *testing.T) {
	ds := starDS(t, 1000, 20000, 13)
	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "v", "dim": "id"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SecondaryIndexes = map[string]string{"fact": "did"}
	e := New(store, d, ds, opts)

	q := workload.NewQuery("si",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("id", predicate.Eq, value.Int(500)))

	got, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ExecuteReference(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kernel result diverges under SI:\n got %+v\nwant %+v", got, want)
	}
}
