package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mto/internal/block"
	"mto/internal/block/blocktest"
	"mto/internal/colstore"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// twoFactDS is starDS with a second fact table, so join-induced cuts land
// in two trees and dim changes affect both.
func twoFactDS(t *testing.T, dims, factRows int, seed int64) *relation.Dataset {
	t.Helper()
	ds := starDS(t, dims, factRows, seed)
	fact := ds.Table("fact")
	fact2 := relation.NewTable(relation.MustSchema("fact2",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "did", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < fact.NumRows(); i++ {
		fact2.MustAppendRow(
			fact.Value(i, 0), fact.Value(i, 1), fact.Value(i, 2), fact.Value(i, 3),
		)
	}
	ds.MustAddTable(fact2)
	return ds
}

func twoFactWorkload(n int) *workload.Workload {
	w := workload.NewWorkload()
	for k := 0; k < n; k++ {
		w.Add(attrQuery("attr"+string(rune('0'+k%10)), int64(k%10)))
		q := workload.NewQuery("attr2-"+string(rune('0'+k%10)),
			workload.TableRef{Table: "dim"},
			workload.TableRef{Table: "fact2"},
		)
		q.AddJoin("dim", "id", "fact2", "did")
		q.Filter("dim", predicate.NewComparison("attr", predicate.Eq, value.Int(int64(k%10))))
		w.Add(q)
	}
	return w
}

// TestAffectedCutsDeterministic pins the sorted-table iteration order of
// affectedCuts: with induced cuts in two trees, repeated calls must return
// the identical predicate sequence (map iteration used to shuffle it).
func TestAffectedCutsDeterministic(t *testing.T) {
	ds := twoFactDS(t, 500, 20000, 9)
	mto, err := Optimize(ds, twoFactWorkload(6), Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	first := mto.affectedCuts("dim")
	if len(first) < 2 {
		t.Fatalf("expected induced cuts in both fact trees, got %d affected predicates", len(first))
	}
	targets := map[string]bool{}
	for _, ip := range first {
		targets[ip.Target()] = true
	}
	if !targets["fact"] || !targets["fact2"] {
		t.Fatalf("expected affected cuts targeting fact and fact2, got %v", targets)
	}
	for i := 0; i < 50; i++ {
		again := mto.affectedCuts("dim")
		if len(again) != len(first) {
			t.Fatalf("iteration %d: length changed %d → %d", i, len(first), len(again))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("iteration %d: affectedCuts order not deterministic at %d", i, j)
			}
		}
	}
}

// TestApplyInsertEmptyNoOp: an insert of zero rows must not route, rewrite,
// or charge simulated seconds.
func TestApplyInsertEmptyNoOp(t *testing.T) {
	ds := starDS(t, 500, 20000, 10)
	mto, err := Optimize(ds, attrWorkload(5), Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := install(t, design)
	before := store.Stats()
	stats, err := mto.ApplyInsert("fact", nil, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ChangeStats{}) {
		t.Errorf("empty insert stats = %+v, want zero", stats)
	}
	if d := store.Stats().Sub(before); d != (block.Stats{}) {
		t.Errorf("empty insert touched the store: %+v", d)
	}
	// Unknown table still errors.
	if _, err := mto.ApplyInsert("nope", nil, design, store); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestApplyReorgEmptyNoOp: plans with no positive-reward choices must not
// write a single block on either apply path.
func TestApplyReorgEmptyNoOp(t *testing.T) {
	ds := starDS(t, 500, 20000, 11)
	mto, err := Optimize(ds, attrWorkload(5), Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := install(t, design)
	// q=w ⇒ no subtree can have positive reward (B ≤ C).
	plans, err := mto.PlanReorg(attrWorkload(5), ReorgConfig{Q: 100, W: 100}, design)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range plans {
		if plan.Choices() != 0 {
			t.Fatalf("expected empty plan for %s", name)
		}
	}
	before := store.Stats()
	stats, err := mto.ApplyReorg(plans, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ReorgStats{}) {
		t.Errorf("empty ApplyReorg stats = %+v, want zero", stats)
	}
	pstats, err := mto.ApplyReorgPartial(plans, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if pstats != (ReorgStats{}) {
		t.Errorf("empty ApplyReorgPartial stats = %+v, want zero", pstats)
	}
	if d := store.Stats().Sub(before); d != (block.Stats{}) {
		t.Errorf("empty reorg touched the store: %+v", d)
	}
}

// failingBackend wraps a Backend and fails the prepare of one table's
// layout change.
type failingBackend struct {
	block.Backend
	failTable string
}

var errInjected = errors.New("injected backend failure")

func (f *failingBackend) PrepareLayout(table string, tl *block.TableLayout) (block.Prepared, error) {
	if table == f.failTable {
		return nil, errInjected
	}
	return f.Backend.PrepareLayout(table, tl)
}

func (f *failingBackend) PrepareReplace(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (block.Prepared, error) {
	if table == f.failTable {
		return nil, errInjected
	}
	return f.Backend.PrepareReplace(table, oldIDs, newGroups, blockSize)
}

// shiftScenario builds the workload-shift reorg setting shared by the
// failure and partial-apply tests: train on attr queries, then plan a
// positive-reward reorg for grp queries on the fact table.
func shiftScenario(t *testing.T, seed int64) (*Optimizer, *layout.Design, *colstore.Store, *relation.Dataset, *workload.Workload, map[string]*ReorgPlan) {
	t.Helper()
	ds := starDS(t, 1000, 50000, seed)
	shiftW := workload.NewWorkload()
	for k := int64(0); k < 5; k++ {
		q := workload.NewQuery("grp"+string(rune('0'+k)),
			workload.TableRef{Table: "dim"},
			workload.TableRef{Table: "fact"},
		)
		q.AddJoin("dim", "id", "fact", "did")
		q.Filter("dim", predicate.NewComparison("grp", predicate.Eq, value.Int(k)))
		shiftW.Add(q)
	}
	mto, err := Optimize(ds, attrWorkload(10), Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := install(t, design)
	plans, err := mto.PlanReorg(shiftW, ReorgConfig{Q: 10000, W: 100, Tables: []string{"fact"}}, design)
	if err != nil {
		t.Fatal(err)
	}
	if plans["fact"].Choices() == 0 {
		t.Fatal("scenario produced no reorg choices")
	}
	return mto, design, store, ds, shiftW, plans
}

func runAll(t *testing.T, store block.Backend, design *layout.Design, ds *relation.Dataset, w *workload.Workload) []*engine.Result {
	t.Helper()
	eng := engine.New(store, design, ds, engine.DefaultOptions())
	out := make([]*engine.Result, 0, w.Len())
	for _, q := range w.Queries {
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// twoTableShiftScenario is shiftScenario over two fact tables and a file
// store: the plan has choices for fact and for fact2, which stage in that
// order.
func twoTableShiftScenario(t *testing.T, seed int64) (*Optimizer, *layout.Design, *colstore.Store, *relation.Dataset, *workload.Workload, map[string]*ReorgPlan) {
	t.Helper()
	ds := twoFactDS(t, 500, 20000, seed)
	shiftW := workload.NewWorkload()
	for k := int64(0); k < 5; k++ {
		for _, fact := range []string{"fact", "fact2"} {
			q := workload.NewQuery("grp-"+fact+string(rune('0'+k)),
				workload.TableRef{Table: "dim"},
				workload.TableRef{Table: fact},
			)
			q.AddJoin("dim", "id", fact, "did")
			q.Filter("dim", predicate.NewComparison("grp", predicate.Eq, value.Int(k)))
			shiftW.Add(q)
		}
	}
	mto, err := Optimize(ds, twoFactWorkload(10), Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store, err := colstore.NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	plans, err := mto.PlanReorg(shiftW, ReorgConfig{Q: 10000, W: 100, Tables: []string{"fact", "fact2"}}, design)
	if err != nil {
		t.Fatal(err)
	}
	if plans["fact"].Choices() == 0 || plans["fact2"].Choices() == 0 {
		t.Fatal("scenario produced no reorg choices for one of the fact tables")
	}
	return mto, design, store, ds, shiftW, plans
}

// installedState is everything a reorganization or an insert that did not
// commit must leave alone: trees and their join-induced cut literals,
// design, the store's write counters, block contents and segment files, and
// what queries answer.
type installedState struct {
	Trees       map[string]string
	Literals    map[string][]int
	Groups      map[string][][]int32
	GroupBlocks map[string][][]int
	BlockRows   map[string][][]int32
	Files       []string
	Written     [2]int64
	Results     []*engine.Result
}

func captureState(t *testing.T, mto *Optimizer, design *layout.Design, store *colstore.Store, ds *relation.Dataset, w *workload.Workload) installedState {
	t.Helper()
	st := installedState{Trees: map[string]string{}, Literals: map[string][]int{}, Groups: map[string][][]int32{},
		GroupBlocks: map[string][][]int{}, BlockRows: map[string][][]int32{}}
	for _, name := range ds.TableNames() {
		st.Trees[name] = mto.Tree(name).Dump()
		for _, ic := range mto.Tree(name).InducedCuts() {
			st.Literals[name] = append(st.Literals[name], ic.Ind.LiteralSize())
		}
		st.Groups[name] = design.Table(name).Groups()
		st.GroupBlocks[name] = design.GroupBlocks(name)
		for _, b := range blocktest.ReadLayout(t, store, name) {
			st.BlockRows[name] = append(st.BlockRows[name], b.Rows)
		}
	}
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		st.Files = append(st.Files, e.Name())
	}
	stats := store.Stats()
	st.Written = [2]int64{stats.BlocksWritten, stats.RowsWritten}
	st.Results = runAll(t, store, design, ds, w)
	return st
}

// changed names the installedState fields that differ between a and b.
func (a installedState) changed(b installedState) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// TestApplyReorgFailingBackendNotTorn fails a two-table reorganization at
// each point before it commits — the first table's prepare, the second's
// (with the first already staged), and a commit the store refuses because
// the table moved on after staging — and asserts nothing was installed:
// trees, design, store and query results are exactly as before the attempt,
// on both the full and the partial apply path.
func TestApplyReorgFailingBackendNotTorn(t *testing.T) {
	for _, mode := range []string{"full", "partial"} {
		t.Run(mode, func(t *testing.T) {
			mto, design, store, ds, shiftW, plans := twoTableShiftScenario(t, 4)
			apply := mto.ApplyReorg
			if mode == "partial" {
				apply = mto.ApplyReorgPartial
			}
			before := captureState(t, mto, design, store, ds, shiftW)

			for _, failTable := range []string{"fact", "fact2"} {
				_, err := apply(plans, design, &failingBackend{Backend: store, failTable: failTable})
				if !errors.Is(err, errInjected) {
					t.Fatalf("%s prepare fails: err = %v, want injected failure", failTable, err)
				}
				if diff := before.changed(captureState(t, mto, design, store, ds, shiftW)); diff != nil {
					t.Errorf("%s prepare fails: %v changed", failTable, diff)
				}
			}

			// Stage both tables, then re-install fact's current layout: the
			// store must refuse the commit staged against its predecessor,
			// and fact2 — staged, never committed — must vanish on Abort.
			staged, err := mto.StageReorg(plans, design, store, mode == "partial")
			if err != nil {
				t.Fatal(err)
			}
			tl, _, err := design.PackTable(ds.Table("fact"), design.Table("fact").Groups())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.SetLayout("fact", tl); err != nil {
				t.Fatal(err)
			}
			moved := captureState(t, mto, design, store, ds, shiftW)
			// Both staged segments are files by now, under names a reopened
			// store does not adopt; they are what Abort has to remove.
			committed := moved.Files[:0:0]
			for _, f := range moved.Files {
				if strings.HasSuffix(f, ".seg") {
					committed = append(committed, f)
				}
			}
			if len(moved.Files)-len(committed) != 2 {
				t.Fatalf("files while two tables are staged: %v", moved.Files)
			}
			moved.Files = committed
			if err := staged.Commit(); err == nil || staged.Stats != (ReorgStats{}) {
				t.Fatalf("commit against a moved table: stats %+v, err %v", staged.Stats, err)
			}
			staged.Abort()
			if diff := moved.changed(captureState(t, mto, design, store, ds, shiftW)); diff != nil {
				t.Errorf("refused commit: %v changed", diff)
			}

			// The same plan still applies cleanly against the real store.
			stats, err := apply(plans, design, store)
			if err != nil {
				t.Fatal(err)
			}
			if stats.RowsMoved == 0 || stats.BlocksWritten == 0 {
				t.Errorf("recovery apply stats = %+v", stats)
			}
			after := captureState(t, mto, design, store, ds, shiftW)
			if len(after.Files) != len(before.Files) {
				t.Errorf("segment files after the apply: %v, want one per table as in %v", after.Files, before.Files)
			}
			if reflect.DeepEqual(before.Trees, after.Trees) || reflect.DeepEqual(before.BlockRows, after.BlockRows) {
				t.Error("committed reorganization left trees or blocks unchanged")
			}
		})
	}
}

// insertScenario installs core's star fixture (12 000 fact rows, block
// size 1000) in a file store and appends 50 fact rows and one dim row that
// the layout does not hold yet; the dim row joins the attr = 0 cuts.
func insertScenario(t *testing.T) (mto *Optimizer, design *layout.Design, store *colstore.Store, ds *relation.Dataset, w *workload.Workload, factRows, dimRows []int) {
	t.Helper()
	ds = starDS(t, 500, 12000, 12)
	w = attrWorkload(10)
	mto, err := Optimize(ds, w, Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if design, err = mto.BuildDesign(); err != nil {
		t.Fatal(err)
	}
	if store, err = colstore.NewStore(t.TempDir(), 1<<20, block.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	fact, dim := ds.Table("fact"), ds.Table("dim")
	for i := 0; i < 50; i++ {
		n := fact.NumRows()
		fact.MustAppendRow(value.Int(int64(n)), fact.Value(i*97, 1), fact.Value(i*97, 2), fact.Value(n-1, 3))
		factRows = append(factRows, n)
	}
	dim.MustAppendRow(value.Int(int64(dim.NumRows())), value.Int(0), value.Int(0))
	return mto, design, store, ds, w, factRows, []int{dim.NumRows() - 1}
}

// TestApplyInsertFailingBackendNotTorn fails an insert at each point before
// it commits — fact's prepare, a commit the store refuses because fact
// moved on after staging, and the prepare of a dim insert, whose commit
// would update join-induced cuts — and asserts nothing was installed:
// trees, cut literals, design, store and query results are exactly as
// before the attempt. Then both inserts apply cleanly.
func TestApplyInsertFailingBackendNotTorn(t *testing.T) {
	mto, design, store, ds, w, factRows, dimRows := insertScenario(t)
	before := captureState(t, mto, design, store, ds, w)
	for _, c := range []struct {
		table string
		rows  []int
	}{{"fact", factRows}, {"dim", dimRows}} {
		_, err := mto.ApplyInsert(c.table, c.rows, design, &failingBackend{Backend: store, failTable: c.table})
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s prepare fails: err = %v, want injected failure", c.table, err)
		}
		if diff := before.changed(captureState(t, mto, design, store, ds, w)); diff != nil {
			t.Errorf("%s prepare fails: %v changed", c.table, diff)
		}
	}

	// Stage the fact insert, then commit the same insert staged a second
	// time: the store must refuse the first, staged against fact's
	// predecessor, and its segment must vanish on Abort.
	staged, err := mto.StageInsert("fact", factRows, design, store)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mto.ApplyInsert("fact", factRows, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsRouted != len(factRows) || st.BlocksWritten == 0 {
		t.Errorf("fact insert stats = %+v", st)
	}
	moved := captureState(t, mto, design, store, ds, w)
	committed := moved.Files[:0:0]
	for _, f := range moved.Files {
		if strings.HasSuffix(f, ".seg") {
			committed = append(committed, f)
		}
	}
	if len(moved.Files)-len(committed) != 1 {
		t.Fatalf("files while one insert is staged: %v", moved.Files)
	}
	moved.Files = committed
	if err := staged.Commit(); err == nil || staged.Stats != (ReorgStats{}) || staged.Insert != (ChangeStats{}) {
		t.Fatalf("commit against a moved table: stats %+v %+v, err %v", staged.Stats, staged.Insert, err)
	}
	staged.Abort()
	if diff := moved.changed(captureState(t, mto, design, store, ds, w)); diff != nil {
		t.Errorf("refused commit: %v changed", diff)
	}

	dst, err := mto.ApplyInsert("dim", dimRows, design, store)
	if err != nil {
		t.Fatal(err)
	}
	after := captureState(t, mto, design, store, ds, w)
	if dst.CutsUpdated == 0 || reflect.DeepEqual(moved.Literals, after.Literals) {
		t.Errorf("dim insert updated %d cuts; literals %v → %v", dst.CutsUpdated, moved.Literals, after.Literals)
	}
	if len(after.Files) != len(before.Files) {
		t.Errorf("segment files after the inserts: %v, want one per table as in %v", after.Files, before.Files)
	}
}

// TestApplyInsertWritesWhatStoreMeters: a 50-row fact insert reports the
// blocks, rows and seconds the store charged, rewrites fewer rows than fact
// holds, leaves dim's segment alone, and every fact row is found.
func TestApplyInsertWritesWhatStoreMeters(t *testing.T) {
	mto, design, store, ds, _, factRows, _ := insertScenario(t)
	segs := func() []string {
		names, err := os.ReadDir(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range names {
			out = append(out, e.Name())
		}
		return out
	}
	filesBefore, statsBefore := segs(), store.Stats()
	st, err := mto.ApplyInsert("fact", factRows, design, store)
	if err != nil {
		t.Fatal(err)
	}
	d := store.Stats().Sub(statsBefore)
	if int64(st.BlocksWritten) != d.BlocksWritten || int64(st.RowsWritten) != d.RowsWritten ||
		st.SimSeconds != float64(d.BlocksWritten)*store.Cost().BlockWriteSeconds {
		t.Errorf("insert reports %+v, the store charged %d blocks / %d rows", st, d.BlocksWritten, d.RowsWritten)
	}
	if st.BlocksWritten == 0 || st.RowsWritten <= len(factRows) || st.RowsWritten >= ds.Table("fact").NumRows() {
		t.Errorf("insert wrote %d blocks / %d rows; fact holds %d rows", st.BlocksWritten, st.RowsWritten, ds.Table("fact").NumRows())
	}
	filesAfter := segs()
	for _, f := range filesBefore {
		if strings.HasPrefix(f, "dim-") && !slices.Contains(filesAfter, f) {
			t.Errorf("dim's segment %s moved: %v", f, filesAfter)
		}
	}
	blocktest.ReadLayout(t, store, "fact")
	eng := engine.New(store, design, ds, engine.DefaultOptions())
	q := workload.NewQuery("all", workload.TableRef{Table: "fact"})
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.SurvivingRows["fact"] != ds.Table("fact").NumRows() {
		t.Errorf("%d of %d fact rows found", res.SurvivingRows["fact"], ds.Table("fact").NumRows())
	}
}

// rangeShiftScenario builds a workload shift whose optimal reorganization
// is a proper subtree, not a whole-table rebuild: train a pure d-range
// partition over fact(d ∈ [0,500)), then shift to v-range queries confined
// to d < 250. At a moderate revisit horizon (Q/W ≈ 3) re-optimizing only
// the d < 250 half pays off while a root rewrite costs more blocks than it
// recoups — exactly the regime partial installs are for.
func rangeShiftScenario(t *testing.T, seed int64) (*Optimizer, *layout.Design, *colstore.Store, *relation.Dataset, *workload.Workload, map[string]*ReorgPlan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := relation.NewDataset()
	tab := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < 50000; i++ {
		tab.MustAppendRow(value.Int(int64(i)), value.Int(int64(rng.Intn(1000))), value.Int(int64(rng.Intn(500))))
	}
	ds.MustAddTable(tab)

	trainW := workload.NewWorkload()
	for k := int64(0); k < 8; k++ {
		q := workload.NewQuery("d"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("d", predicate.Ge, value.Int(k*62)))
		q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int((k+1)*62)))
		trainW.Add(q)
	}
	shiftW := workload.NewWorkload()
	for k := int64(0); k < 5; k++ {
		q := workload.NewQuery("v"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int(250)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Ge, value.Int(k*200)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int((k+1)*200)))
		shiftW.Add(q)
	}

	mto, err := Optimize(ds, trainW, Options{BlockSize: 1000, JoinInduction: false})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := install(t, design)
	plans, err := mto.PlanReorg(shiftW, ReorgConfig{Q: 300, W: 100}, design)
	if err != nil {
		t.Fatal(err)
	}
	p := plans["fact"]
	if p.Choices() == 0 {
		t.Fatal("scenario produced no reorg choices")
	}
	if p.RowsToRewrite >= tab.NumRows() {
		t.Fatalf("scenario chose a whole-table rewrite (%d rows) — partial install has nothing to save", p.RowsToRewrite)
	}
	return mto, design, store, ds, shiftW, plans
}

// TestApplyReorgPartialMatchesFull: the partial (ReplaceBlocks) install
// must produce the same query answers and the same routing improvements as
// the full per-table rewrite, while physically writing far fewer blocks.
func TestApplyReorgPartialMatchesFull(t *testing.T) {
	mtoA, designA, storeA, ds, shiftW, plansA := rangeShiftScenario(t, 4)
	mtoB, designB, storeB, _, _, plansB := rangeShiftScenario(t, 4)

	beforeBlocks := totalBlocks(t, engine.New(storeB, designB, ds, engine.DefaultOptions()), shiftW)

	statsA, err := mtoA.ApplyReorg(plansA, designA, storeA)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mtoB.estimateWrites(plansB["fact"], plansB["fact"].choices, designB, storeB)
	if err != nil {
		t.Fatal(err)
	}
	wBefore := storeB.Stats()
	statsB, err := mtoB.ApplyReorgPartial(plansB, designB, storeB)
	if err != nil {
		t.Fatal(err)
	}
	blocktest.ReadLayout(t, storeB, "fact")

	// Same logical work, far less physical writing.
	if statsA.RowsMoved != statsB.RowsMoved || statsA.BlocksRewritten != statsB.BlocksRewritten {
		t.Errorf("logical stats differ: full %+v vs partial %+v", statsA, statsB)
	}
	if statsB.BlocksWritten >= statsA.BlocksWritten {
		t.Errorf("partial wrote %d blocks, full wrote %d — expected fewer", statsB.BlocksWritten, statsA.BlocksWritten)
	}
	if est != statsB.BlocksWritten {
		t.Errorf("estimateWrites = %d, actual physical writes = %d", est, statsB.BlocksWritten)
	}
	if d := storeB.Stats().Sub(wBefore); d.BlocksWritten != int64(statsB.BlocksWritten) {
		t.Errorf("store charged %d block writes, stats report %d", d.BlocksWritten, statsB.BlocksWritten)
	}

	// Identical query answers, and the same improvement on the shifted
	// workload (block counts may differ slightly: the full path re-packs
	// the whole table so blocks straddle group boundaries, the partial
	// path chops appended groups per leaf).
	resA := runAll(t, storeA, designA, ds, shiftW)
	resB := runAll(t, storeB, designB, ds, shiftW)
	for i := range resA {
		if !reflect.DeepEqual(resA[i].SurvivingRows, resB[i].SurvivingRows) {
			t.Errorf("query %s: surviving rows differ between full and partial install", shiftW.Queries[i].ID)
		}
	}
	afterBlocks := totalBlocks(t, engine.New(storeB, designB, ds, engine.DefaultOptions()), shiftW)
	if afterBlocks >= beforeBlocks {
		t.Errorf("partial reorg did not help: %d → %d", beforeBlocks, afterBlocks)
	}
}

// TestTrimPlansToBudget: trimming keeps estimated (and actual) physical
// writes within the budget, at a reward no greater than the untrimmed plan.
func TestTrimPlansToBudget(t *testing.T) {
	mto, design, store, _, _, plans := shiftScenario(t, 4)

	full, err := mto.estimateWrites(plans["fact"], plans["fact"].choices, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if full < 2 {
		t.Skipf("scenario too small to trim: %d estimated writes", full)
	}
	// Unlimited budget passes plans through untouched.
	same, err := mto.TrimPlansToBudget(plans, design, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, plans) {
		t.Error("budget 0 must not trim")
	}

	budget := full / 2
	trimmed, err := mto.TrimPlansToBudget(plans, design, store, budget)
	if err != nil {
		t.Fatal(err)
	}
	est := 0
	for name, plan := range trimmed {
		e, err := mto.estimateWrites(plan, plan.choices, design, store)
		if err != nil {
			t.Fatal(err)
		}
		est += e
		if plan != nil && plans[name] != nil && plan.TotalReward > plans[name].TotalReward+1e-9 {
			t.Errorf("%s: trimmed reward %g exceeds full %g", name, plan.TotalReward, plans[name].TotalReward)
		}
	}
	if est > budget {
		t.Fatalf("trimmed estimate %d exceeds budget %d", est, budget)
	}
	stats, err := mto.ApplyReorgPartial(trimmed, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksWritten > budget {
		t.Errorf("applied %d physical writes, budget %d", stats.BlocksWritten, budget)
	}
	blocktest.ReadLayout(t, store, "fact")
}

// TestKernelMatchesReferenceAfterPartialReorg: after ApplyReorgPartial the
// fact table's blocks are kept blocks beside appended leaf chunks, most of
// them with row counts that are not a multiple of 64, so survivor sets
// carry padding between blocks. Execute must still equal
// ExecuteReference, joins, aggregates and grouping included, under every
// option set.
func TestKernelMatchesReferenceAfterPartialReorg(t *testing.T) {
	mto, design, store, ds, shiftW, plans := shiftScenario(t, 6)
	if _, err := mto.ApplyReorgPartial(plans, design, store); err != nil {
		t.Fatal(err)
	}
	blocks := blocktest.ReadLayout(t, store, "fact")
	ragged := 0
	for _, b := range blocks {
		if len(b.Rows)%64 != 0 {
			ragged++
		}
	}
	if len(blocks) < 2 || ragged < 2 {
		t.Fatalf("fixture: %d fact blocks, %d with a partial last word", len(blocks), ragged)
	}
	queries := append([]*workload.Query(nil), shiftW.Queries...)
	queries = append(queries, attrWorkload(4).Queries...)
	for k := int64(0); k < 3; k++ {
		q := attrQuery(fmt.Sprintf("agg%d", k), k)
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(500+k*100)))
		q.Aggregate(workload.AggSum, "fact", "v")
		q.Aggregate(workload.AggAvg, "fact", "v")
		q.Aggregate(workload.AggMin, "fact", "d")
		q.Aggregate(workload.AggCount, "fact", "")
		queries = append(queries, q)
		g := attrQuery(fmt.Sprintf("grp%d", k), k)
		g.Aggregate(workload.AggSum, "fact", "v")
		g.Aggregate(workload.AggMax, "fact", "fid")
		g.GroupByCol("fact", "d")
		queries = append(queries, g)
	}
	si := engine.DefaultOptions()
	si.SecondaryIndexes = map[string]string{"fact": "did"}
	for name, opts := range map[string]engine.Options{
		"default": engine.DefaultOptions(), "clouddw": engine.CloudDWOptions(), "si": si,
	} {
		eng := engine.New(store, design, ds, opts)
		for _, q := range queries {
			got, err := eng.Execute(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q.ID, err)
			}
			want, err := eng.ExecuteReference(q)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", name, q.ID, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: kernel diverges from reference:\n got %+v\nwant %+v", name, q.ID, got, want)
			}
		}
	}
}
