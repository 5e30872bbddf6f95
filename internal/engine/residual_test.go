package engine_test

import (
	"math"
	"math/bits"
	"reflect"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/engine"
	"mto/internal/experiments"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// The engine has one filter route: every filter is pushed down into the
// backend's scan, whatever its shape, and the reference path evaluates the
// same filters over the base table. The tests in this file pin the two
// together on the shapes predicate normalization rewrites, wherever the
// segment's bytes live.

// TestResidualFilterTouchesOnlyRowsRead is the engine row of the oracle
// shape table (predicate's TestRefusedShapesMatchOracle): a selective
// conjunct routes the query to 1 of 20 blocks, a second conjunct of a
// shape normalization rewrites must then be evaluated over exactly that
// block, with the Result equal to ExecuteReference's and the survivors
// FillMask's.
func TestResidualFilterTouchesOnlyRowsRead(t *testing.T) {
	const rows, blockSize = 10000, 500
	ds := relation.NewDataset()
	ev := relation.NewTable(relation.MustSchema("ev",
		relation.Column{Name: "d", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
		relation.Column{Name: "b", Type: value.KindInt},
	))
	for i := 0; i < rows; i++ {
		f := value.Value(value.Float(float64(i%40) * 0.5))
		switch {
		case i%13 == 0:
			f = value.Null
		case i%17 == 0:
			f = value.Float(math.NaN())
		case i%19 == 0:
			f = value.Float(math.Inf(1 - 2*(i%2)))
		}
		ev.MustAppendRow(value.Int(int64(i/blockSize)), value.Int(int64(i*7%23)), f,
			value.String(string(rune('a'+i%5))), value.Int(1<<53-2+int64(i%5)))
	}
	ds.MustAddTable(ev)

	shapes := map[string]predicate.Predicate{
		"int column vs float literal": predicate.NewComparison("v", predicate.Lt, value.Float(11.5)),
		"float IN list":               predicate.NewIn("f", value.Float(1.5), value.Float(7)),
		"NULL literal":                predicate.NewOr(predicate.NewComparison("v", predicate.Eq, value.Null), predicate.NewLike("s", "b%")),
		"mixed-kind column pair":      &predicate.ColumnComparison{Left: "f", Op: predicate.Lt, Right: "v"},
		"v IN (3.0)":                  predicate.NewIn("v", value.Float(3)),
		"v NOT IN (3.0)":              predicate.NewNotIn("v", value.Float(3)),
		"NaN literal":                 predicate.NewOr(predicate.NewComparison("f", predicate.Ne, value.Float(math.NaN())), predicate.NewComparison("v", predicate.Eq, value.Int(4))),
		"NaN and Inf rows":            predicate.NewComparison("f", predicate.Ne, value.Float(2)),
		"int column near 2^53":        predicate.NewComparison("b", predicate.Gt, value.Float(1<<53)),
		"string vs int literal":       predicate.NewOr(predicate.NewComparison("s", predicate.Eq, value.Int(5)), predicate.NewComparison("v", predicate.Gt, value.Int(11))),
	}
	stores := map[string]func() (*colstore.Store, error){
		"RAM": func() (*colstore.Store, error) { return colstore.NewMemStore(block.DefaultCostModel()), nil },
		"file": func() (*colstore.Store, error) {
			return colstore.NewStore(t.TempDir(), 8<<20, block.DefaultCostModel())
		},
	}
	for bname, newStore := range stores {
		design, err := layout.SortKeyDesign(ds, layout.SortKeys{"ev": "d"}, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		store, err := newStore()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		if _, err := design.Install(store, nil, 0); err != nil {
			t.Fatal(err)
		}
		e := engine.New(store, design, ds, engine.DefaultOptions())
		for shape, p := range shapes {
			q := workload.NewQuery("residual", workload.TableRef{Table: "ev"})
			q.Filter("ev", predicate.NewComparison("d", predicate.Eq, value.Int(7)))
			q.Filter("ev", p)
			before := e.StatsSnapshot()
			got, err := e.Execute(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", bname, shape, err)
			}
			st := e.StatsSnapshot().Sub(before)
			if st.BlocksRead != 1 || st.RowsScanned != blockSize {
				t.Fatalf("%s/%s: read %d blocks / %d rows, want 1 / %d", bname, shape, st.BlocksRead, st.RowsScanned, blockSize)
			}
			want, err := e.ExecuteReference(q)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", bname, shape, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: kernel diverges from reference:\n got %+v\nwant %+v", bname, shape, got, want)
			}
			if n := maskCount(q.FilterOn("ev"), ev); got.SurvivingRows["ev"] != n {
				t.Errorf("%s/%s: %d survivors, FillMask finds %d", bname, shape, got.SurvivingRows["ev"], n)
			}
		}
	}
}

// maskCount is the number of rows of t p matches, by FillMask.
func maskCount(p predicate.Predicate, t *relation.Table) int {
	mask := make([]uint64, (t.NumRows()+63)/64)
	predicate.FillMask(p, t, mask)
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestNaNRowsSurviveZoneMaps: every tenth f is NaN, and the first row of
// every block. A NaN must not become a zone-map bound — it would make
// every block look empty of matches — and matches no comparison, "<>"
// included, in Execute, in ExecuteReference and in FillMask alike.
func TestNaNRowsSurviveZoneMaps(t *testing.T) {
	ds := relation.NewDataset()
	ev := relation.NewTable(relation.MustSchema("ev",
		relation.Column{Name: "d", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
	))
	for i := 0; i < 100; i++ {
		f := value.Float(float64(i) * 0.05)
		if i%10 == 0 {
			f = value.Float(math.NaN())
		}
		ev.MustAppendRow(value.Int(int64(i)), f)
	}
	ds.MustAddTable(ev)
	design, err := layout.SortKeyDesign(ds, layout.SortKeys{"ev": "d"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	t.Cleanup(func() { store.Close() })
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	e := engine.New(store, design, ds, engine.DefaultOptions())
	for _, p := range []predicate.Predicate{
		predicate.NewComparison("f", predicate.Gt, value.Int(3)),
		predicate.NewComparison("f", predicate.Ne, value.Int(1)),
		predicate.NewComparison("f", predicate.Lt, value.Float(1.5)),
	} {
		q := workload.NewQuery("nan", workload.TableRef{Table: "ev"})
		q.Filter("ev", p)
		got, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.ExecuteReference(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel diverges from reference:\n got %+v\nwant %+v", p, got, want)
		}
		if n := maskCount(p, ev); got.SurvivingRows["ev"] != n || n == 0 {
			t.Errorf("%s: %d survivors, FillMask finds %d", p, got.SurvivingRows["ev"], n)
		}
	}
}

// TestPushdownCoversBenchmarks runs every SSB, TPC-H and TPC-DS template —
// including TPC-H's column-vs-column Q4/Q12/Q21 — over encoded pages, on
// the default store (segments in memory) and on segment files alike. Every
// filter is pushed down by construction now; the test keeps the workloads'
// column pairs in view.
func TestPushdownCoversBenchmarks(t *testing.T) {
	for _, store := range []string{"mem", "disk"} {
		t.Run(store, func(t *testing.T) { pushdownCoversBenchmarks(t, store) })
	}
}

func pushdownCoversBenchmarks(t *testing.T, store string) {
	s := identityScale()
	s.Store, s.DataDir, s.CacheMB = store, t.TempDir(), 16
	for _, bench := range []*experiments.Bench{
		experiments.SSBBench(s), experiments.TPCHBench(s), experiments.TPCDSBench(s),
	} {
		d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Store.(*colstore.Store).Close() })
		e := engine.New(d.Store, d.Design, bench.Dataset, engine.CloudDWOptions())
		pairs := 0
		for _, q := range bench.Workload.Queries {
			for _, alias := range q.Aliases() {
				f := q.FilterOn(alias)
				if hasColumnPair(f) {
					pairs++
				}
			}
			if _, err := e.Execute(q); err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, q.ID, err)
			}
		}
		if bench.Name == "TPC-H" && pairs == 0 {
			t.Errorf("%s: no column-vs-column filter in the workload", bench.Name)
		}
	}
}

func hasColumnPair(p predicate.Predicate) bool {
	switch q := p.(type) {
	case *predicate.ColumnComparison:
		return true
	case *predicate.And:
		for _, c := range q.Children {
			if hasColumnPair(c) {
				return true
			}
		}
	case *predicate.Or:
		for _, c := range q.Children {
			if hasColumnPair(c) {
				return true
			}
		}
	}
	return false
}
