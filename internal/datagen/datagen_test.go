package datagen

import (
	"math/rand"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/workload"
)

func TestTPCHShape(t *testing.T) {
	ds := TPCH(TPCHConfig{ScaleFactor: 0.001, Seed: 1})
	want := map[string]int{
		"region": 5, "nation": 25,
	}
	for name, n := range want {
		if got := ds.Table(name).NumRows(); got != n {
			t.Errorf("%s rows = %d, want %d", name, got, n)
		}
	}
	// Scaled tables honour the SF ratios.
	nOrders := ds.Table("orders").NumRows()
	nLine := ds.Table("lineitem").NumRows()
	if nOrders < 1400 || nOrders > 1600 {
		t.Errorf("orders rows = %d", nOrders)
	}
	if ratio := float64(nLine) / float64(nOrders); ratio < 3 || ratio > 5 {
		t.Errorf("lineitem/orders ratio = %g", ratio)
	}
	// Lineitem shipdates trail their order's date (the through-the-join
	// correlation of §6.3.1).
	orders := ds.Table("orders")
	// Referential integrity: every lineitem joins an order.
	orderKeys, err := relation.BuildColumnDict(orders, "o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	line := ds.Table("lineitem")
	ok := line.Schema().MustColumnIndex("l_orderkey")
	for r := 0; r < line.NumRows(); r += 97 {
		if _, _, exists := orderKeys.CodeRange(line.Value(r, ok)); !exists {
			t.Fatalf("lineitem row %d references missing order", r)
		}
	}
	// Sort keys reference real columns.
	for table, col := range TPCHSortKeys() {
		if _, ok := ds.Table(table).Schema().ColumnIndex(col); !ok {
			t.Errorf("sort key %s.%s missing", table, col)
		}
	}
}

func TestTPCHWorkloadValid(t *testing.T) {
	ds := TPCH(TPCHConfig{ScaleFactor: 0.001, Seed: 2})
	w := TPCHWorkload(2, 3)
	if w.Len() != 2*NumTPCHTemplates {
		t.Fatalf("workload size = %d", w.Len())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every query references existing tables/columns and executes.
	d, err := layout.SortKeyDesign(ds, TPCHSortKeys(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store, d, ds, engine.CloudDWOptions())
	nonEmpty := 0
	for _, q := range w.Queries {
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for _, n := range res.SurvivingRows {
			if n > 0 {
				nonEmpty++
				break
			}
		}
	}
	// Most templates should produce non-empty results at this scale.
	if nonEmpty < w.Len()/2 {
		t.Errorf("only %d of %d queries returned rows", nonEmpty, w.Len())
	}
	// Template subsets for the workload-shift experiment.
	first := TPCHWorkloadTemplates(1, 11, 1, 4)
	if first.Len() != 11 {
		t.Errorf("template subset size = %d", first.Len())
	}
}

func TestTPCHFilterColumnsExist(t *testing.T) {
	ds := TPCH(TPCHConfig{ScaleFactor: 0.001, Seed: 4})
	rng := rand.New(rand.NewSource(5))
	for tmpl := 1; tmpl <= NumTPCHTemplates; tmpl++ {
		q := TPCHQuery(tmpl, rng)
		if err := q.Validate(); err != nil {
			t.Fatalf("template %d: %v", tmpl, err)
		}
		checkFilterColumns(t, ds, q)
		checkJoinColumns(t, ds, q)
	}
}

func checkFilterColumns(t *testing.T, ds *relation.Dataset, q *workload.Query) {
	t.Helper()
	for alias, f := range q.Filters {
		table := ds.Table(q.BaseTable(alias))
		if table == nil {
			t.Fatalf("%s: filter on unknown table %q", q.ID, q.BaseTable(alias))
		}
		f.VisitColumns(func(col string) {
			if _, ok := table.Schema().ColumnIndex(col); !ok {
				t.Errorf("%s: filter column %s.%s missing", q.ID, table.Schema().Table(), col)
			}
		})
	}
}

func checkJoinColumns(t *testing.T, ds *relation.Dataset, q *workload.Query) {
	t.Helper()
	for _, j := range q.Joins {
		lt := ds.Table(q.BaseTable(j.Left))
		rt := ds.Table(q.BaseTable(j.Right))
		if lt == nil || rt == nil {
			t.Fatalf("%s: join references unknown table", q.ID)
		}
		if _, ok := lt.Schema().ColumnIndex(j.LeftColumn); !ok {
			t.Errorf("%s: join column %s.%s missing", q.ID, lt.Schema().Table(), j.LeftColumn)
		}
		if _, ok := rt.Schema().ColumnIndex(j.RightColumn); !ok {
			t.Errorf("%s: join column %s.%s missing", q.ID, rt.Schema().Table(), j.RightColumn)
		}
	}
}

func TestSSBShapeAndWorkload(t *testing.T) {
	ds := SSB(SSBConfig{ScaleFactor: 0.001, Seed: 1})
	if got := ds.Table("date").NumRows(); got != 2557 {
		t.Errorf("date rows = %d, want 2557", got)
	}
	if got := ds.Table("lineorder").NumRows(); got != 6000 {
		t.Errorf("lineorder rows = %d", got)
	}
	w := SSBWorkload(2)
	if w.Len() != 13 {
		t.Fatalf("SSB workload = %d queries", w.Len())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		checkFilterColumns(t, ds, q)
		checkJoinColumns(t, ds, q)
	}
	for table, col := range SSBSortKeys() {
		if _, ok := ds.Table(table).Schema().ColumnIndex(col); !ok {
			t.Errorf("sort key %s.%s missing", table, col)
		}
	}
	// All SSB joins are star joins into lineorder → induction depth 1.
	for _, q := range w.Queries {
		for _, j := range q.Joins {
			if q.BaseTable(j.Right) != "lineorder" {
				t.Errorf("%s: non-star join %v", q.ID, j)
			}
		}
	}
}

func TestTPCDSShapeAndWorkload(t *testing.T) {
	ds := TPCDS(TPCDSConfig{ScaleFactor: 0.001, Seed: 1})
	for _, name := range []string{
		"date_dim", "item", "store", "customer", "customer_address",
		"household_demographics", "store_sales", "store_returns", "web_sales",
	} {
		if ds.Table(name) == nil || ds.Table(name).NumRows() == 0 {
			t.Fatalf("table %s missing or empty", name)
		}
	}
	w := TPCDSWorkload(1)
	if w.Len() != NumTPCDSTemplates {
		t.Fatalf("TPC-DS workload = %d", w.Len())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	shapes := map[string]bool{}
	for _, q := range w.Queries {
		checkFilterColumns(t, ds, q)
		checkJoinColumns(t, ds, q)
		shapes[q.Tables[0].Table+"/"+string(rune(len(q.Tables)))] = true
	}
	for table, col := range TPCDSSortKeys() {
		if _, ok := ds.Table(table).Schema().ColumnIndex(col); !ok {
			t.Errorf("sort key %s.%s missing", table, col)
		}
	}
	// The 46 templates cover multiple fact tables.
	factUse := map[string]bool{}
	for _, q := range w.Queries {
		for _, r := range q.Tables {
			switch r.Table {
			case "store_sales", "store_returns", "web_sales":
				factUse[r.Table] = true
			}
		}
	}
	if len(factUse) != 3 {
		t.Errorf("templates use %d fact tables, want 3", len(factUse))
	}
}

func TestDeterminism(t *testing.T) {
	a := TPCH(TPCHConfig{ScaleFactor: 0.001, Seed: 9})
	b := TPCH(TPCHConfig{ScaleFactor: 0.001, Seed: 9})
	if a.Table("lineitem").NumRows() != b.Table("lineitem").NumRows() {
		t.Fatal("generator not deterministic")
	}
	for r := 0; r < 100; r++ {
		va := a.Table("lineitem").Value(r, 0)
		vb := b.Table("lineitem").Value(r, 0)
		if !va.Equal(vb) {
			t.Fatal("row contents differ across identical seeds")
		}
	}
	w1 := TPCHWorkload(2, 42)
	w2 := TPCHWorkload(2, 42)
	for i := range w1.Queries {
		if w1.Queries[i].String() != w2.Queries[i].String() {
			t.Fatal("workload not deterministic")
		}
	}
}
