package engine_test

import (
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

// The engine has two filter routes: pushed down into the backend's scan, or
// row by row over the rows ScanBlock returned. The tests in this file pin
// each to the filters it serves, wherever the segment's bytes live.

// TestResidualFilterTouchesOnlyRowsRead is the proportionality property of
// the per-row route: a selective conjunct routes the query to 1 of 20
// blocks, a second conjunct of a shape the backend's scan refuses forces
// the whole filter onto the per-row evaluator — which must then be handed
// exactly the rows of the block that was read, not the table's, with the
// Result equal to ExecuteReference's.
func TestResidualFilterTouchesOnlyRowsRead(t *testing.T) {
	const rows, blockSize = 10000, 500
	ds := relation.NewDataset()
	ev := relation.NewTable(relation.MustSchema("ev",
		relation.Column{Name: "d", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "s", Type: value.KindString},
	))
	for i := 0; i < rows; i++ {
		f := value.Value(value.Float(float64(i%40) * 0.5))
		if i%13 == 0 {
			f = value.Null
		}
		ev.MustAppendRow(value.Int(int64(i/blockSize)), value.Int(int64(i*7%23)), f,
			value.String(string(rune('a'+i%5))))
	}
	ds.MustAddTable(ev)

	refused := map[string]predicate.Predicate{
		"int column vs float literal": predicate.NewComparison("v", predicate.Lt, value.Float(11.5)),
		"float IN list":               predicate.NewIn("f", value.Float(1.5), value.Float(7)),
		"NULL literal":                predicate.NewOr(predicate.NewComparison("v", predicate.Eq, value.Null), predicate.NewLike("s", "b%")),
		"mixed-kind column pair":      &predicate.ColumnComparison{Left: "f", Op: predicate.Lt, Right: "v"},
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
		for shape, p := range refused {
			q := workload.NewQuery("residual", workload.TableRef{Table: "ev"})
			q.Filter("ev", predicate.NewComparison("d", predicate.Eq, value.Int(7)))
			q.Filter("ev", p)
			if sup := store.CompileScan("ev", []predicate.Predicate{q.FilterOn("ev")}).Supported(); sup[0] {
				t.Fatalf("%s/%s: backend accepted the filter; the test no longer forces the residual route", bname, shape)
			}
			before := e.StatsSnapshot()
			got, err := e.Execute(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", bname, shape, err)
			}
			st := e.StatsSnapshot().Sub(before)
			if st.BlocksRead != 1 || st.RowsScanned != blockSize {
				t.Fatalf("%s/%s: read %d blocks / %d rows, want 1 / %d", bname, shape, st.BlocksRead, st.RowsScanned, blockSize)
			}
			if st.ResidualFilterRows != st.RowsScanned {
				t.Errorf("%s/%s: per-row evaluator saw %d rows, blocks read hold %d (table: %d)",
					bname, shape, st.ResidualFilterRows, st.RowsScanned, rows)
			}
			want, err := e.ExecuteReference(q)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", bname, shape, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: kernel diverges from reference:\n got %+v\nwant %+v", bname, shape, got, want)
			}
			if got.SurvivingRows["ev"] == 0 || got.SurvivingRows["ev"] == blockSize {
				t.Errorf("%s/%s: %d survivors of %d: the residual conjunct does not discriminate",
					bname, shape, got.SurvivingRows["ev"], blockSize)
			}
		}
	}
}

// TestPushdownCoversBenchmarks pins the reach of the pushed-down route:
// every SSB, TPC-H and TPC-DS template — including TPC-H's column-vs-column
// Q4/Q12/Q21 — has all of its filters evaluated over encoded pages, so not
// one row reaches the per-row evaluator, on the default store (segments in
// memory) and on segment files alike.
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
				if sup := d.Store.CompileScan(q.BaseTable(alias), []predicate.Predicate{f}).Supported(); !sup[0] {
					t.Errorf("%s/%s: filter on %s not pushed down: %s", bench.Name, q.ID, alias, f)
				}
			}
			if _, err := e.Execute(q); err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, q.ID, err)
			}
		}
		if n := e.StatsSnapshot().ResidualFilterRows; n != 0 {
			t.Errorf("%s: %d rows fell off the pushdown", bench.Name, n)
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
