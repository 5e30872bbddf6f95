package core

import (
	"encoding/json"
	"math"
	"math/rand"
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

// starDS builds dim(id unique, attr, grp) + fact(fid unique, did, v, d).
// fact.d correlates with fid; fact.did is uniform, so no single sort order
// helps dim-filtered join queries — the setting where MTO shines.
func starDS(t *testing.T, dims, factRows int, seed int64) *relation.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := relation.NewDataset()
	dim := relation.NewTable(relation.MustSchema("dim",
		relation.Column{Name: "id", Type: value.KindInt, Unique: true},
		relation.Column{Name: "attr", Type: value.KindInt},
		relation.Column{Name: "grp", Type: value.KindInt},
	))
	for i := 0; i < dims; i++ {
		dim.MustAppendRow(value.Int(int64(i)), value.Int(int64(i%10)), value.Int(int64(i%5)))
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "did", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < factRows; i++ {
		fact.MustAppendRow(
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(dims))),
			value.Int(int64(rng.Intn(1000))),
			value.Int(int64(i/100)),
		)
	}
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)
	return ds
}

func attrQuery(id string, attr int64) *workload.Query {
	q := workload.NewQuery(id,
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("attr", predicate.Eq, value.Int(attr)))
	return q
}

func attrWorkload(n int) *workload.Workload {
	w := workload.NewWorkload()
	for k := 0; k < n; k++ {
		w.Add(attrQuery("attr"+string(rune('0'+k%10)), int64(k%10)))
	}
	return w
}

// totalBlocks runs every workload query through eng and sums blocks read.
func totalBlocks(t *testing.T, eng *engine.Engine, w *workload.Workload) int {
	t.Helper()
	total := 0
	for _, q := range w.Queries {
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		total += res.BlocksRead
	}
	return total
}

func install(t *testing.T, d *layout.Design) *colstore.Store {
	t.Helper()
	store := colstore.NewMemStore(block.DefaultCostModel())
	if _, err := d.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestMTOBeatsSTOBeatsBaseline(t *testing.T) {
	ds := starDS(t, 1000, 50000, 1)
	w := attrWorkload(10)
	blockSize := 1000

	// Baseline: fact sorted by date, dim by pk.
	base, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": "d", "dim": "id"}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	baseStore := install(t, base)
	baseBlocks := totalBlocks(t, engine.New(baseStore, base, ds, engine.DefaultOptions()), w)

	// STO: instance-optimized without join induction.
	sto, err := Optimize(ds, w, Options{BlockSize: blockSize, JoinInduction: false})
	if err != nil {
		t.Fatal(err)
	}
	stoDesign, err := sto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	stoStore := install(t, stoDesign)
	stoBlocks := totalBlocks(t, engine.New(stoStore, stoDesign, ds, engine.DefaultOptions()), w)

	// MTO: with join-induced cuts.
	mto, err := Optimize(ds, w, Options{BlockSize: blockSize, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if mto.Name() != "MTO" || sto.Name() != "STO" {
		t.Error("names wrong")
	}
	mtoDesign, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	mtoStore := install(t, mtoDesign)
	mtoBlocks := totalBlocks(t, engine.New(mtoStore, mtoDesign, ds, engine.DefaultOptions()), w)

	t.Logf("blocks: baseline=%d sto=%d mto=%d", baseBlocks, stoBlocks, mtoBlocks)
	// The workload filters only dim attributes: STO cannot block the fact
	// table at all, Baseline's sort doesn't help, and MTO's join-induced
	// cuts should cut fact accesses dramatically.
	if !(mtoBlocks < stoBlocks) || !(mtoBlocks < baseBlocks) {
		t.Fatalf("MTO (%d) should beat STO (%d) and Baseline (%d)", mtoBlocks, stoBlocks, baseBlocks)
	}
	if float64(mtoBlocks) > 0.5*float64(baseBlocks) {
		t.Errorf("MTO reduction too weak: %d vs %d", mtoBlocks, baseBlocks)
	}

	// Correctness: surviving rows identical across all three layouts.
	q := w.Queries[0]
	rb, _ := engine.New(baseStore, base, ds, engine.DefaultOptions()).Execute(q)
	rs, _ := engine.New(stoStore, stoDesign, ds, engine.DefaultOptions()).Execute(q)
	rm, _ := engine.New(mtoStore, mtoDesign, ds, engine.DefaultOptions()).Execute(q)
	for alias, n := range rb.SurvivingRows {
		if rs.SurvivingRows[alias] != n || rm.SurvivingRows[alias] != n {
			t.Errorf("alias %s: surviving rows differ across layouts", alias)
		}
	}

	// Stats: MTO's tree uses induced cuts; STO's does not.
	if mto.Stats().InducedCuts == 0 {
		t.Error("MTO should use induced cuts")
	}
	if sto.Stats().InducedCuts != 0 {
		t.Error("STO must not use induced cuts")
	}
	if mto.Stats().MemBytes <= 0 {
		t.Error("stats memory should be positive")
	}
	if mto.Timings().OptimizeSeconds <= 0 {
		t.Error("optimization timing missing")
	}
	if len(mto.TableStats()) != 2 {
		t.Error("TableStats incomplete")
	}
	if mto.Tree("fact") == nil || mto.Tree("nope") != nil {
		t.Error("Tree lookup wrong")
	}
	if mto.Dataset() != ds || mto.Workload() != w {
		t.Error("accessors wrong")
	}
}

func TestOptimizeValidation(t *testing.T) {
	ds := starDS(t, 10, 100, 2)
	w := attrWorkload(2)
	if _, err := Optimize(ds, w, Options{BlockSize: 0}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := Optimize(ds, w, Options{BlockSize: 10, SampleRate: 2}); err == nil {
		t.Error("bad sample rate accepted")
	}
	bad := workload.NewWorkload(workload.NewQuery("x", workload.TableRef{}))
	if _, err := Optimize(ds, bad, Options{BlockSize: 10}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestSampledOptimization(t *testing.T) {
	ds := starDS(t, 1000, 50000, 3)
	w := attrWorkload(10)
	blockSize := 1000

	full, err := Optimize(ds, w, Options{BlockSize: blockSize, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Optimize(ds, w, Options{
		BlockSize: blockSize, JoinInduction: true, SampleRate: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := full.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	sd, err := sampled.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	fullBlocks := totalBlocks(t, engine.New(install(t, fd), fd, ds, engine.DefaultOptions()), w)
	sampBlocks := totalBlocks(t, engine.New(install(t, sd), sd, ds, engine.DefaultOptions()), w)
	t.Logf("blocks: full=%d sampled=%d", fullBlocks, sampBlocks)
	// Sampled optimization with CA should land within 2× of the full build.
	if float64(sampBlocks) > 2*float64(fullBlocks)+1 {
		t.Errorf("sampled layout too weak: %d vs %d", sampBlocks, fullBlocks)
	}
	// The sampled build must still route *all* records (on the full data).
	blocktest.ReadLayout(t, install(t, sd), "fact")
}

func TestReorgAfterWorkloadShift(t *testing.T) {
	ds := starDS(t, 1000, 50000, 4)
	blockSize := 1000
	// Train on attr queries; shift to grp queries.
	trainW := attrWorkload(10)
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

	mto, err := Optimize(ds, trainW, Options{BlockSize: blockSize, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := install(t, design)
	before := totalBlocks(t, engine.New(store, design, ds, engine.DefaultOptions()), shiftW)

	// q=100, w=100 ⇒ q/w=1: reward can never be positive (B ≤ C), so no
	// reorganization happens (§5.1.2).
	lowQ, err := mto.PlanReorg(shiftW, ReorgConfig{Q: 100, W: 100}, design)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range lowQ {
		if plan.TotalReward > 0 || plan.BlocksToRewrite != 0 {
			t.Errorf("q=w should never reorganize: %+v", plan)
		}
	}

	// Large q: reorganize.
	plans, err := mto.PlanReorg(shiftW, ReorgConfig{Q: 10000, W: 100}, design)
	if err != nil {
		t.Fatal(err)
	}
	factPlan := plans["fact"]
	if factPlan == nil || factPlan.TotalReward <= 0 {
		t.Fatalf("expected positive reward on fact, got %+v", factPlan)
	}
	if factPlan.SubtreesConsidered == 0 || factPlan.SubtreesConsidered > factPlan.SubtreesTotal {
		t.Errorf("subtree accounting wrong: %+v", factPlan)
	}
	if factPlan.PlanSeconds < 0 {
		t.Error("plan timing missing")
	}

	stats, err := mto.ApplyReorg(plans, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsMoved == 0 || stats.BlocksRewritten == 0 || stats.FracDataReorganized <= 0 {
		t.Fatalf("reorg stats = %+v", stats)
	}
	if stats.SimSeconds <= 0 {
		t.Error("reorg cost missing")
	}
	// Layout still valid and performance improved on the new workload.
	blocktest.ReadLayout(t, store, "fact")
	after := totalBlocks(t, engine.New(store, design, ds, engine.DefaultOptions()), shiftW)
	t.Logf("shift workload blocks: before=%d after=%d", before, after)
	if after >= before {
		t.Errorf("reorg did not help: %d → %d", before, after)
	}
}

func TestReorgFullWithInfiniteQ(t *testing.T) {
	ds := starDS(t, 500, 20000, 5)
	blockSize := 1000
	mto, err := Optimize(ds, attrWorkload(5), Options{BlockSize: blockSize, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	install(t, design)
	shift := workload.NewWorkload()
	q := workload.NewQuery("v", workload.TableRef{Table: "fact"})
	q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(100)))
	shift.Add(q)

	plans, err := mto.PlanReorg(shift, ReorgConfig{Q: math.Inf(1), W: 100}, design)
	if err != nil {
		t.Fatal(err)
	}
	if plans["fact"].TotalReward <= 0 {
		t.Fatal("infinite q should always reorganize something")
	}
	// With pruning disabled the same (or better) reward is found, at the
	// cost of considering every subtree.
	noPrune, err := mto.PlanReorg(shift, ReorgConfig{Q: math.Inf(1), W: 100, DisablePruning: true}, design)
	if err != nil {
		t.Fatal(err)
	}
	if noPrune["fact"].SubtreesConsidered < plans["fact"].SubtreesConsidered {
		t.Error("pruning should not consider more subtrees than exhaustive")
	}
	if noPrune["fact"].TotalReward < plans["fact"].TotalReward-1e-9 {
		t.Error("pruned search missed reward found by exhaustive search")
	}
}

func TestApplyInsert(t *testing.T) {
	// Build on a truncated fact table, then insert the rest (Fig. 14b).
	dims, factRows := 500, 20000
	ds := starDS(t, dims, factRows, 6)
	fact := ds.Table("fact")

	// Re-create a dataset with only the first 60% of fact rows.
	partial := relation.NewDataset()
	partial.MustAddTable(ds.Table("dim"))
	pf := relation.NewTable(fact.Schema())
	cutoff := factRows * 6 / 10
	for r := 0; r < cutoff; r++ {
		pf.MustAppendRow(fact.Row(r)...)
	}
	partial.MustAddTable(pf)

	w := attrWorkload(10)
	mto, err := Optimize(partial, w, Options{BlockSize: 1000, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := install(t, design)

	// Insert the remaining rows into the same base table.
	var newRows []int
	for r := cutoff; r < factRows; r++ {
		pf.MustAppendRow(fact.Row(r)...)
		newRows = append(newRows, pf.NumRows()-1)
	}
	stats, err := mto.ApplyInsert("fact", newRows, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsRouted != len(newRows) {
		t.Errorf("routed %d of %d rows", stats.RowsRouted, len(newRows))
	}
	if stats.BlocksWritten == 0 || stats.SimSeconds <= 0 {
		t.Errorf("insert stats = %+v", stats)
	}
	// fact is the target of induced cuts, never on their paths, so no cut
	// updates happen for fact inserts in this schema.
	if stats.CutsUpdated != 0 {
		t.Errorf("fact inserts should not update cuts here, got %d", stats.CutsUpdated)
	}
	blocktest.ReadLayout(t, store, "fact")
	// Queries still benefit from the layout: blocks read stay below total.
	eng := engine.New(store, design, partial, engine.DefaultOptions())
	res, err := eng.Execute(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.PerTable["fact"].BlocksRead >= res.PerTable["fact"].TotalBlocks {
		t.Error("layout lost all skipping after insert")
	}

	// Inserting into dim (on induction paths) updates cuts.
	dim := partial.Table("dim")
	dim.MustAppendRow(value.Int(int64(dims)), value.Int(0), value.Int(0))
	dstats, err := mto.ApplyInsert("dim", []int{dim.NumRows() - 1}, design, store)
	if err != nil {
		t.Fatal(err)
	}
	if dstats.CutsUpdated == 0 {
		t.Error("dim insert should update induced cuts")
	}

	// Delete maintenance is exposed for the cut side.
	del, err := mto.UpdateCutsForDelete("dim", []int{dim.NumRows() - 1})
	if err != nil {
		t.Fatal(err)
	}
	if del.CutsUpdated == 0 {
		t.Error("dim delete should update induced cuts")
	}
	// Errors.
	if _, err := mto.ApplyInsert("nope", nil, design, store); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestUniqueRestrictionAblation(t *testing.T) {
	// A workload filtering the FACT table with fact→dim joins: under the
	// unique restriction no induction into dim is possible (fact.did is
	// not unique), so dim's tree has no induced cuts; the ablation allows
	// them. fact.v must correlate with did so the induced literal on dim
	// is selective enough to be a useful cut.
	ds := relation.NewDataset()
	dim := relation.NewTable(relation.MustSchema("dim",
		relation.Column{Name: "id", Type: value.KindInt, Unique: true},
	))
	for i := 0; i < 1000; i++ {
		dim.MustAppendRow(value.Int(int64(i)))
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "did", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
	))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		did := int64(rng.Intn(1000))
		fact.MustAppendRow(value.Int(did), value.Int(did)) // v == did
	}
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)

	w := workload.NewWorkload()
	for k := int64(1); k <= 5; k++ {
		q := workload.NewQuery("f"+string(rune('0'+k)),
			workload.TableRef{Table: "dim"},
			workload.TableRef{Table: "fact"},
		)
		q.AddJoin("dim", "id", "fact", "did")
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(k*150)))
		w.Add(q)
	}
	restricted, err := Optimize(ds, w, Options{BlockSize: 100, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := restricted.Tree("dim").Stats().InducedCuts; got != 0 {
		t.Errorf("restricted build has %d induced cuts on dim", got)
	}
	ablated, err := Optimize(ds, w, Options{
		BlockSize: 100, JoinInduction: true, DisableUniqueRestriction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ablated.Tree("dim").Stats().InducedCuts; got == 0 {
		t.Error("ablated build should induce into dim")
	}
}

// TestLayoutIdentityAcrossParallelism pins the determinism contract of the
// whole offline phase: with join induction and sampling on, the learned
// layout — tree JSON and block assignments — is byte-identical at any
// Parallelism setting. This exercises the batched induced-predicate
// evaluator, the bounded per-table build fan-out, and the parallel
// re-evaluation of induced cuts over the full dataset.
func TestLayoutIdentityAcrossParallelism(t *testing.T) {
	ds1 := starDS(t, 50, 4000, 3)
	ds8 := starDS(t, 50, 4000, 3)
	w := attrWorkload(6)
	opts := Options{
		BlockSize: 200, JoinInduction: true, SampleRate: 0.3, Seed: 11,
	}
	opts1, opts8 := opts, opts
	opts1.Parallelism = 1
	opts8.Parallelism = 8

	o1, err := Optimize(ds1, w, opts1)
	if err != nil {
		t.Fatal(err)
	}
	o8, err := Optimize(ds8, w, opts8)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := o1.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	d8, err := o8.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"dim", "fact"} {
		j1, err := json.Marshal(o1.Tree(table))
		if err != nil {
			t.Fatal(err)
		}
		j8, err := json.Marshal(o8.Tree(table))
		if err != nil {
			t.Fatal(err)
		}
		if string(j1) != string(j8) {
			t.Errorf("%s: tree JSON differs between Parallelism 1 and 8", table)
		}
		g1, g8 := d1.Table(table).Groups(), d8.Table(table).Groups()
		if len(g1) != len(g8) {
			t.Fatalf("%s: %d groups vs %d", table, len(g1), len(g8))
		}
		for i := range g1 {
			if len(g1[i]) != len(g8[i]) {
				t.Fatalf("%s: group %d size %d vs %d", table, i, len(g1[i]), len(g8[i]))
			}
			for j := range g1[i] {
				if g1[i][j] != g8[i][j] {
					t.Fatalf("%s: group %d row %d: %d vs %d", table, i, j, g1[i][j], g8[i][j])
				}
			}
		}
	}
}
