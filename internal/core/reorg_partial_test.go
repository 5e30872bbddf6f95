package core

import (
	"errors"
	"math/rand"
	"reflect"
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

// failingBackend wraps a Backend and fails layout writes for one table.
type failingBackend struct {
	block.Backend
	failTable string
}

var errInjected = errors.New("injected backend failure")

func (f *failingBackend) SetLayout(table string, tl *block.TableLayout) (float64, error) {
	if table == f.failTable {
		return 0, errInjected
	}
	return f.Backend.SetLayout(table, tl)
}

func (f *failingBackend) ReplaceBlocks(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (float64, error) {
	if table == f.failTable {
		return 0, errInjected
	}
	return f.Backend.ReplaceBlocks(table, oldIDs, newGroups, blockSize)
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

// TestApplyReorgFailingBackendNotTorn injects a backend failure into the
// layout write and asserts the query path observes no partial install: the
// design, tree, and store are exactly as before the attempt, on both the
// full and the partial apply path.
func TestApplyReorgFailingBackendNotTorn(t *testing.T) {
	for _, mode := range []string{"full", "partial"} {
		t.Run(mode, func(t *testing.T) {
			mto, design, store, ds, shiftW, plans := shiftScenario(t, 4)
			before := runAll(t, store, design, ds, shiftW)
			beforeStats := store.Stats()
			fb := &failingBackend{Backend: store, failTable: "fact"}

			var err error
			if mode == "full" {
				_, err = mto.ApplyReorg(plans, design, fb)
			} else {
				_, err = mto.ApplyReorgPartial(plans, design, fb)
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want injected failure", err)
			}
			if d := store.Stats().Sub(beforeStats); d.BlocksWritten != 0 || d.RowsWritten != 0 {
				t.Errorf("failed reorg wrote to the store: %+v", d)
			}
			blocktest.ReadLayout(t, store, "fact")
			after := runAll(t, store, design, ds, shiftW)
			if !reflect.DeepEqual(before, after) {
				t.Error("query results changed after failed reorg")
			}

			// The same plan still applies cleanly against the real store.
			var stats ReorgStats
			if mode == "full" {
				stats, err = mto.ApplyReorg(plans, design, store)
			} else {
				stats, err = mto.ApplyReorgPartial(plans, design, store)
			}
			if err != nil {
				t.Fatal(err)
			}
			if stats.RowsMoved == 0 || stats.BlocksWritten == 0 {
				t.Errorf("recovery apply stats = %+v", stats)
			}
			blocktest.ReadLayout(t, store, "fact")
		})
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
	est, err := mtoB.EstimateWrites(plansB["fact"], designB, storeB)
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
		t.Errorf("EstimateWrites = %d, actual physical writes = %d", est, statsB.BlocksWritten)
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

	full, err := mto.EstimateWrites(plans["fact"], design, store)
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
		e, err := mto.EstimateWrites(plan, design, store)
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
