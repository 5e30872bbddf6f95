package engine

import (
	"fmt"
	"math"
	"math/rand"
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

// shuffledGroups splits a permutation of n rows into groups of 1 to 300
// rows.
func shuffledGroups(n int, rng *rand.Rand) [][]int32 {
	perm := rng.Perm(n)
	var groups [][]int32
	for off := 0; off < n; {
		end := min(off+1+rng.Intn(300), n)
		g := make([]int32, 0, end-off)
		for _, r := range perm[off:end] {
			g = append(g, int32(r))
		}
		groups = append(groups, g)
		off = end
	}
	return groups
}

// installGroups installs ds with each table laid out as its groups (every
// table not in groups in row order), blocks of blockSize rows, queries
// reading every block.
func installGroups(t *testing.T, ds *relation.Dataset, groups map[string][][]int32, blockSize int) (*colstore.Store, *layout.Design) {
	t.Helper()
	d := layout.NewDesign("groups", blockSize)
	for _, name := range ds.TableNames() {
		tbl := ds.Table(name)
		g, ok := groups[name]
		if !ok {
			all := make([]int32, tbl.NumRows())
			for r := range all {
				all[r] = int32(r)
			}
			g = [][]int32{all}
		}
		d.SetTable(tbl, g, nil)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	return store, d
}

// TestFloatFoldsIgnoreLayoutOrder: float SUM and AVG, and a float GROUP
// BY, fold in the row-order pass, which must see base-row order however
// the layout permutes the rows. Float addition is order-sensitive (the
// column mixes magnitudes 1e16 apart) and a ±0 group is labelled by its
// first survivor, so a fold in layout order would differ in the last bits
// or the zero's sign. Every layout must equal the reference and the
// sequential layout bit for bit.
func TestFloatFoldsIgnoreLayoutOrder(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	tbl := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "id", Type: value.KindInt},
		relation.Column{Name: "f", Type: value.KindFloat},
		relation.Column{Name: "g", Type: value.KindFloat},
	))
	mags := []float64{1e16, 1, 0.1, -1e16, 3.3e-7}
	zeros := []float64{math.Copysign(0, -1), 0}
	for r := 0; r < n; r++ {
		f := value.Float(mags[rng.Intn(len(mags))] * (1 + rng.Float64()))
		if r%37 == 0 {
			f = value.Null
		}
		g := value.Float(float64(rng.Intn(4)))
		switch {
		case r%5 == 0:
			g = value.Float(zeros[rng.Intn(2)])
		case r%41 == 0:
			g = value.Float(math.NaN())
		}
		tbl.MustAppendRow(value.Int(int64(r)), f, g)
	}
	ds := relation.NewDataset()
	ds.MustAddTable(tbl)

	var queries []*workload.Query
	for k := 0; k < 3; k++ {
		q := workload.NewQuery(fmt.Sprintf("flat%d", k), workload.TableRef{Table: "t"})
		q.Filter("t", predicate.NewComparison("id", predicate.Ge, value.Int(int64(k*700))))
		q.Aggregate(workload.AggSum, "t", "f").Aggregate(workload.AggAvg, "t", "f")
		queries = append(queries, q)
		g := workload.NewQuery(fmt.Sprintf("grouped%d", k), workload.TableRef{Table: "t"})
		g.Filter("t", predicate.NewComparison("id", predicate.Ge, value.Int(int64(k*700))))
		g.Aggregate(workload.AggSum, "t", "f").Aggregate(workload.AggCount, "t", "")
		g.GroupByCol("t", "g")
		queries = append(queries, g)
	}

	var want [][]exactAgg
	layouts := []map[string][][]int32{nil, {"t": shuffledGroups(n, rng)}, {"t": shuffledGroups(n, rng)}}
	for li, groups := range layouts {
		store, d := installGroups(t, ds, groups, 150)
		e := New(store, d, ds, DefaultOptions())
		for qi, q := range queries {
			got, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := e.ExecuteReference(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, ref) {
				t.Errorf("layout %d, %s: kernel %v, reference %v", li, q.ID, got.Aggregates, ref.Aggregates)
			}
			if li == 0 {
				want = append(want, exactAggs(got.Aggregates))
			} else if !reflect.DeepEqual(exactAggs(got.Aggregates), want[qi]) {
				t.Errorf("layout %d, %s: %v differs from the sequential layout's", li, q.ID, got.Aggregates)
			}
		}
	}
}

// TestReplacedLayoutRebuildsLayoutCaches: an engine whose table is given a
// new layout under it — same block count, rows permuted — drops the
// position-ordered codes and postings it cached for the old one and keeps
// answering as the reference does.
func TestReplacedLayoutRebuildsLayoutCaches(t *testing.T) {
	ds := starDS(t, 500, 20000, 3)
	fact := ds.Table("fact")
	store, d := installGroups(t, ds, nil, 1000)
	si := CloudDWOptions()
	si.SecondaryIndexes = map[string]string{"fact": "did"}
	queries := []*workload.Query{
		joinQuery("j1", 1),
		joinQuery("j2", 4, predicate.NewComparison("v", predicate.Lt, value.Int(300))),
	}
	engines := map[string]*Engine{
		"clouddw": New(store, d, ds, CloudDWOptions()),
		"si":      New(store, d, ds, si),
	}
	check := func(stage string) {
		t.Helper()
		for name, e := range engines {
			for _, q := range queries {
				got, err := e.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.ExecuteReference(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s %s: kernel diverges from reference:\n got %+v\nwant %+v", stage, name, q.ID, got, want)
				}
			}
		}
	}
	check("first layout")

	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(fact.NumRows())
	rows := make([]int32, len(perm))
	for i, r := range perm {
		rows[i] = int32(r)
	}
	tl, err := block.NewTableLayout(fact, [][]int32{rows}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumBlocks() != store.NumBlocks("fact") {
		t.Fatalf("fixture: %d blocks replace %d", tl.NumBlocks(), store.NumBlocks("fact"))
	}
	if _, err := store.SetLayout("fact", tl); err != nil {
		t.Fatal(err)
	}
	check("replaced layout")

	order, err := store.CompileScan("fact", nil).RowOrder()
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range engines {
		for k, ent := range e.codes {
			if k.table == "fact" && ent.order != order {
				t.Errorf("%s: codes of %v still laid out by the replaced layout", name, k)
			}
		}
		for k, ent := range e.posts {
			if k.table == "fact" && ent.order != order {
				t.Errorf("%s: postings of %v still laid out by the replaced layout", name, k)
			}
		}
		if _, ok := e.codes[colKey{"fact", "did"}]; !ok {
			t.Errorf("%s: no fact.did codes cached", name)
		}
	}
}
