package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// coverDS builds dim(id int, sid int, fid float, attr int) with 50 rows and
// fact(...) with 3000 rows whose key columns draw from dim's columns:
//   - did, dsub, sid and fok hold only values dim holds (dsub a narrower
//     interval than dim.id, sid a sorted, non-interval dictionary, fok a
//     float column);
//   - dmiss also holds values dim never does, dnull NULLs and fnan NaNs.
func coverDS(t *testing.T) *relation.Dataset {
	t.Helper()
	const dims = 50
	dim := relation.NewTable(relation.MustSchema("dim",
		relation.Column{Name: "id", Type: value.KindInt, Unique: true},
		relation.Column{Name: "sid", Type: value.KindInt},
		relation.Column{Name: "fid", Type: value.KindFloat},
		relation.Column{Name: "attr", Type: value.KindInt},
	))
	for i := int64(0); i < dims; i++ {
		dim.MustAppendRow(value.Int(i), value.Int(3*i), value.Float(float64(i)+0.5), value.Int(i%5))
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "did", Type: value.KindInt},
		relation.Column{Name: "dsub", Type: value.KindInt},
		relation.Column{Name: "sid", Type: value.KindInt},
		relation.Column{Name: "fok", Type: value.KindFloat},
		relation.Column{Name: "dmiss", Type: value.KindInt},
		relation.Column{Name: "dnull", Type: value.KindInt},
		relation.Column{Name: "fnan", Type: value.KindFloat},
		relation.Column{Name: "v", Type: value.KindInt},
	))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(dims))
		dnull, fnan := value.Int(k), value.Float(float64(k)+0.5)
		if i%97 == 0 {
			dnull, fnan = value.Null, value.Float(math.NaN())
		}
		fact.MustAppendRow(value.Int(k), value.Int(10+k%30), value.Int(3*k), value.Float(float64(k)+0.5),
			value.Int(k+int64(i%7)), dnull, fnan, value.Int(int64(rng.Intn(1000))))
	}
	ds := relation.NewDataset()
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)
	return ds
}

// coverCase reduces fact by dim on one column pair.
type coverCase struct {
	name          string
	factCol, dCol string
	filtered      bool // dim keeps only attr < 2
	anti          bool
	short         bool // the step cannot remove a row
}

func coverCases() []coverCase {
	return []coverCase{
		{name: "interval", factCol: "did", dCol: "id", short: true},
		{name: "interval inside", factCol: "dsub", dCol: "id", short: true},
		{name: "sorted", factCol: "sid", dCol: "sid", short: true},
		{name: "float", factCol: "fok", dCol: "fid", short: true},
		{name: "missing value", factCol: "dmiss", dCol: "id"},
		{name: "sorted missing value", factCol: "dmiss", dCol: "sid"},
		{name: "null key", factCol: "dnull", dCol: "id"},
		{name: "nan key", factCol: "fnan", dCol: "fid"},
		{name: "filtered source", factCol: "did", dCol: "id", filtered: true},
		{name: "anti", factCol: "did", dCol: "id", anti: true},
	}
}

// TestCoveringSourceShortCuts: a non-anti step whose source keeps all its
// rows and whose column holds every value of the target column, with no
// NULL or NaN target row, visits no row — and in every case, covered or
// not, the step keeps exactly the scalar reduceTo's rows, and Execute
// equals ExecuteReference on the whole Result (probes through Seconds).
func TestCoveringSourceShortCuts(t *testing.T) {
	ds := coverDS(t)
	fact, dim := ds.Table("fact"), ds.Table("dim")
	e := New(nil, nil, ds, DefaultOptions())
	rng := rand.New(rand.NewSource(9))
	fOrder, dOrder := permutedOrder(fact.NumRows(), rng), permutedOrder(dim.NumRows(), rng)
	for _, c := range coverCases() {
		dRows := allRows(dim.NumRows())
		if c.filtered {
			dRows = dRows[:0]
			for r := 0; r < dim.NumRows(); r++ {
				if r%5 < 2 {
					dRows = append(dRows, r)
				}
			}
		}
		s := semijoin{tgt: testAlias("fact", fOrder, allRows(fact.NumRows())), src: testAlias("dim", dOrder, dRows),
			tgtCol: c.factCol, srcCol: c.dCol, anti: c.anti}
		src := e.prepare(s, false)
		if short := src.how == shortCut; short != c.short {
			t.Errorf("%s: short-cut %v, want %v", c.name, short, c.short)
		}
		e.run(s, src)
		got := bitmap.NewDense(fact.NumRows())
		baseRows(s.tgt.set, fOrder, got)

		as := &aliasState{table: "fact"}
		for r := 0; r < fact.NumRows(); r++ {
			as.rows = append(as.rows, int32(r))
		}
		var srcRows []int32
		for _, r := range dRows {
			srcRows = append(srcRows, int32(r))
		}
		reduceTo(as, fact, c.factCol, keysOf(dim, srcRows, c.dCol), c.anti)
		want := bitmap.NewDense(fact.NumRows())
		for _, r := range as.rows {
			want.Set(int(r))
		}
		if !reflect.DeepEqual(got, want) || s.tgt.count != len(as.rows) {
			t.Errorf("%s: kept %d rows, reference keeps %d", c.name, s.tgt.count, len(as.rows))
		}
	}

	d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "v", "dim": "id"}, 250)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	defer store.Close()
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{DefaultOptions(), CloudDWOptions()} {
		e := New(store, d, ds, opts)
		for _, c := range coverCases() {
			typ := workload.InnerJoin
			if c.anti {
				typ = workload.LeftAntiSemiJoin
			}
			q := workload.NewQuery(c.name, workload.TableRef{Table: "fact"}, workload.TableRef{Table: "dim"})
			q.AddTypedJoin(workload.Join{Left: "fact", LeftColumn: c.factCol, Right: "dim", RightColumn: c.dCol, Type: typ})
			if c.filtered {
				q.Filter("dim", predicate.NewComparison("attr", predicate.Lt, value.Int(2)))
			}
			q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(600)))
			q.Aggregate(workload.AggCount, "fact", "").Aggregate(workload.AggSum, "fact", "v")
			got, err := e.Execute(q)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, err := e.ExecuteReference(q)
			if err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
			if !sameResult(got, want) {
				t.Errorf("%s: kernel diverges from reference:\n got %+v\nwant %+v", c.name, got, want)
			}
		}
	}
}
