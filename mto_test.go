package mto

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mto/internal/core"
)

// buildDemo creates a small star dataset and workload through the public
// API only — the same path a downstream user takes.
func buildDemo(t testing.TB) (*Dataset, *Workload) {
	ds := NewDataset()
	dim := NewTable(MustSchema("dim",
		Column{Name: "id", Type: KindInt, Unique: true},
		Column{Name: "region", Type: KindString},
	))
	regions := []string{"NA", "EU", "APAC", "LATAM"}
	for i := 0; i < 400; i++ {
		dim.MustAppendRow(Int(int64(i)), String(regions[i%4]))
	}
	fact := NewTable(MustSchema("fact",
		Column{Name: "fid", Type: KindInt, Unique: true},
		Column{Name: "dim_id", Type: KindInt},
		Column{Name: "amount", Type: KindFloat},
	))
	for i := 0; i < 20000; i++ {
		fact.MustAppendRow(Int(int64(i)), Int(int64(i*7919%400)), Float(float64(i%1000)))
	}
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)

	w := NewWorkload()
	for _, r := range regions {
		q := NewQuery("sales-"+r, TableRef{Table: "dim"}, TableRef{Table: "fact"})
		q.AddJoin("dim", "id", "fact", "dim_id")
		q.Filter("dim", Compare("region", Eq, String(r)))
		w.Add(q)
	}
	return ds, w
}

func TestOpenAndExecute(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "MTO" {
		t.Errorf("Name = %q", sys.Name())
	}
	res, err := sys.Execute(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRead == 0 || res.BlocksRead >= sys.TotalBlocks() {
		t.Errorf("blocks read = %d of %d — expected skipping", res.BlocksRead, sys.TotalBlocks())
	}
	if res.Seconds <= 0 {
		t.Error("no simulated time")
	}
	st := sys.Stats()
	if st.InducedCuts == 0 {
		t.Error("no induced cuts learned")
	}
	if sys.Timings().OptimizeSeconds < 0 {
		t.Error("timings missing")
	}
	if sys.IOStats().BlocksRead == 0 {
		t.Error("io stats missing")
	}
	dump, err := sys.TreeDump("fact")
	if err != nil || !strings.Contains(dump, "qd-tree") {
		t.Errorf("TreeDump: %v", err)
	}
	if _, err := sys.TreeDump("nope"); err == nil {
		t.Error("TreeDump on unknown table accepted")
	}
}

func TestSTOMode(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000, DisableJoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "STO" {
		t.Errorf("Name = %q", sys.Name())
	}
	if sys.Stats().InducedCuts != 0 {
		t.Error("STO must not induce")
	}
}

func TestReorganizeAPI(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Shift to amount-range queries.
	shifted := NewWorkload()
	for i := 0; i < 4; i++ {
		q := NewQuery("amt", TableRef{Table: "fact"})
		q.ID = q.ID + string(rune('0'+i))
		q.Filter("fact", Between("amount", Float(float64(i*250)), Float(float64(i*250+249))))
		shifted.Add(q)
	}
	before, err := sys.Execute(shifted.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.Reorganize(shifted, ReorgOptions{ExpectedQueries: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if report.FracDataReorganized <= 0 || report.BlocksRewritten == 0 {
		t.Fatalf("report = %+v", report)
	}
	after, err := sys.Execute(shifted.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.BlocksRead > before.BlocksRead {
		t.Errorf("reorg increased blocks: %d → %d", before.BlocksRead, after.BlocksRead)
	}
}

func TestInsertAPI(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	fact := ds.Table("fact")
	var rows []int
	for i := 0; i < 500; i++ {
		fact.MustAppendRow(Int(int64(20000+i)), Int(int64(i%400)), Float(1))
		rows = append(rows, fact.NumRows()-1)
	}
	report, err := sys.Insert("fact", rows)
	if err != nil {
		t.Fatal(err)
	}
	if report.RowsRouted != 500 {
		t.Errorf("routed %d rows", report.RowsRouted)
	}
	// The inserted rows are queryable.
	res, err := sys.Execute(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.SurvivingRows["fact"] == 0 {
		t.Error("no surviving rows after insert")
	}
}

// TestInsertRejectsBadRows: an insert must list exactly the rows the layout
// does not hold yet, each once. Anything else is an error that changes
// nothing: later queries give the pre-insert answers.
func TestInsertRejectsBadRows(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Execute(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]int{{20000}, {-1}, {1 << 30}, {0, 1, 2}, {19999}} {
		if _, err := sys.Insert("fact", rows); err == nil {
			t.Errorf("insert of rows %v accepted", rows)
		}
		got, err := sys.Execute(w.Queries[0])
		if err != nil {
			t.Fatalf("query after the insert of rows %v: %v", rows, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query after the insert of rows %v: %+v, want %+v", rows, got, want)
		}
	}
}

func TestPredicateHelpers(t *testing.T) {
	p := Between("x", Int(1), Int(5))
	if p.String() != "(x >= 1) AND (x <= 5)" {
		t.Errorf("Between = %q", p.String())
	}
	if TruePredicate().String() != "TRUE" || FalsePredicate().String() != "FALSE" {
		t.Error("constants wrong")
	}
	or := Or(In("a", Int(1)), NotIn("a", Int(2)), Like("s", "x%"), NotLike("s", "y%"))
	if or.String() == "" {
		t.Error("composite predicate empty")
	}
	if !MustDate("2020-01-02").Equal(MustDate("2020-01-02")) {
		t.Error("date helper broken")
	}
	_ = Null
}

func TestConfigErrors(t *testing.T) {
	ds, w := buildDemo(t)
	if _, err := Open(ds, w, Config{}); err == nil {
		t.Error("missing block size accepted")
	}
	if _, err := Open(ds, w, Config{BlockSize: 100, SampleRate: 7}); err == nil {
		t.Error("bad sample rate accepted")
	}
}

func TestSaveLoadLayout(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sys.SaveLayout(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSaved(strings.NewReader(buf.String()), ds, w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical stats and identical routing behaviour.
	if loaded.Stats() != sys.Stats() {
		t.Errorf("stats differ: %+v vs %+v", loaded.Stats(), sys.Stats())
	}
	for _, q := range w.Queries {
		a, err := sys.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.BlocksRead != b.BlocksRead {
			t.Errorf("%s: blocks differ after load: %d vs %d", q.ID, a.BlocksRead, b.BlocksRead)
		}
	}
	// The loaded system keeps working: reorganization and inserts run.
	if _, err := loaded.Reorganize(w, ReorgOptions{ExpectedQueries: 50}); err != nil {
		t.Fatal(err)
	}
	// Garbage input is rejected.
	if _, err := OpenSaved(strings.NewReader("{"), ds, w, Config{}); err == nil {
		t.Error("garbage layout accepted")
	}
	if _, err := OpenSaved(strings.NewReader(`{"version":99}`), ds, w, Config{}); err == nil {
		t.Error("future version accepted")
	}
}

func TestParseSQLFacade(t *testing.T) {
	ds, _ := buildDemo(t)
	q, err := ParseSQL(`SELECT * FROM dim, fact WHERE dim.id = fact.dim_id AND dim.region = 'EU'`, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %v", q.Joins)
	}
	w, err := ParseSQLWorkload(ds,
		`SELECT * FROM fact WHERE amount > 10`,
		`SELECT * FROM dim WHERE region = 'NA'`,
	)
	if err != nil || w.Len() != 2 {
		t.Fatalf("workload: %v", err)
	}
	// A parsed workload drives the optimizer end to end.
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(w.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSQL(`garbage`, ds); err == nil {
		t.Error("garbage SQL accepted")
	}
}

func TestReorganizeAsync(t *testing.T) {
	for _, store := range []string{"mem", "disk"} {
		t.Run(store, func(t *testing.T) {
			ds, w := buildDemo(t)
			cfg := Config{BlockSize: 1000, Store: store}
			if store == "disk" {
				cfg.DataDir = t.TempDir()
			}
			sys, err := Open(ds, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			// The shift touches only fact: dim is not in the plan.
			shifted := NewWorkload()
			for i := 0; i < 4; i++ {
				q := NewQuery("amt"+string(rune('0'+i)), TableRef{Table: "fact"})
				q.Filter("fact", Between("amount", Float(float64(i*250)), Float(float64(i*250+249))))
				shifted.Add(q)
			}
			before, err := sys.Execute(shifted.Queries[0])
			if err != nil {
				t.Fatal(err)
			}
			trained := make([]*Result, w.Len())
			for i, q := range w.Queries {
				if trained[i], err = sys.Execute(q); err != nil {
					t.Fatal(err)
				}
			}
			// While a reorganization is active every other mutation is
			// rejected. (Claimed by hand and released with nothing staged:
			// how long a real one stays active is up to the scheduler.)
			run, err := sys.in.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.ReorganizeAsync(shifted, ReorgOptions{ExpectedQueries: 10}); err == nil {
				t.Error("second concurrent reorganization accepted")
			}
			if _, err := sys.Reorganize(shifted, ReorgOptions{ExpectedQueries: 10}); err == nil {
				t.Error("blocking reorganization accepted beside an active one")
			}
			if _, err := sys.Insert("fact", nil); err == nil {
				t.Error("insert accepted during a reorganization")
			}
			if err := run(func() (*core.StagedReorg, error) { return nil, nil }); err != nil {
				t.Fatal(err)
			}

			done, err := sys.ReorganizeAsync(shifted, ReorgOptions{ExpectedQueries: 1e6})
			if err != nil {
				t.Fatal(err)
			}
			// Queries are served while the new layout is planned and staged.
			if _, err := sys.Execute(w.Queries[0]); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if res.Report.FracDataReorganized <= 0 {
				t.Fatalf("report = %+v", res.Report)
			}
			after, err := sys.Execute(shifted.Queries[0])
			if err != nil {
				t.Fatal(err)
			}
			if after.BlocksRead > before.BlocksRead {
				t.Errorf("swap did not improve shifted query: %d → %d", before.BlocksRead, after.BlocksRead)
			}

			// Tables the plan skipped are still there and still answer.
			for i, q := range w.Queries {
				got, err := sys.Execute(q)
				if err != nil {
					t.Fatalf("training query %s after the swap: %v", q.ID, err)
				}
				if !reflect.DeepEqual(got.SurvivingRows, trained[i].SurvivingRows) {
					t.Errorf("training query %s: surviving rows %v, before the swap %v", q.ID, got.SurvivingRows, trained[i].SurvivingRows)
				}
			}
			perTable := 0
			for _, name := range ds.TableNames() {
				n := sys.in.Store().NumBlocks(name)
				if n <= 0 {
					t.Errorf("table %s has %d blocks after the swap", name, n)
				}
				perTable += n
			}
			if got := sys.TotalBlocks(); got != perTable {
				t.Errorf("TotalBlocks = %d, tables sum to %d", got, perTable)
			}
			if store == "disk" {
				entries, err := os.ReadDir(cfg.DataDir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range entries {
					if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
						t.Errorf("data dir holds %q: want segment files only", e.Name())
					}
					names = append(names, e.Name())
				}
				if len(names) != len(ds.TableNames()) {
					t.Errorf("data dir holds %v: want one segment per table", names)
				}
			}

			// Mutations work again after the swap.
			if _, err := sys.Reorganize(shifted, ReorgOptions{ExpectedQueries: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentExecutes(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, err := sys.Execute(w.Queries[(i+j)%len(w.Queries)]); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestExecuteWorkload(t *testing.T) {
	ds, w := buildDemo(t)
	sys, err := Open(ds, w, Config{BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sys.ExecuteWorkload(w.Queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sys.ExecuteWorkload(w.Queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(w.Queries) {
		t.Fatalf("got %d results, want %d", len(seq.Results), len(w.Queries))
	}
	if seq.Blocks != par.Blocks || seq.Seconds != par.Seconds {
		t.Errorf("parallel replay diverged: seq={%d %g} par={%d %g}",
			seq.Blocks, seq.Seconds, par.Blocks, par.Seconds)
	}
	for i, q := range w.Queries {
		if seq.Results[i].Query != q.ID || par.Results[i].Query != q.ID {
			t.Errorf("result %d out of input order", i)
		}
	}
}
