package live

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/datagen"
	"mto/internal/engine"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// open optimizes ds for w, installs the design in store and serves it.
func open(t *testing.T, ds *relation.Dataset, w *workload.Workload, opts core.Options, store block.Backend) *Instance {
	t.Helper()
	opt, err := core.Optimize(ds, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	design, err := opt.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	return New(opt, design, store, ds, engine.DefaultOptions(), nil)
}

// shiftScenario serves, from store, a single-table layout partitioned on d
// (trained on d-range queries) and returns it with v-range queries the
// layout serves poorly, so a plan against them rewrites the table.
func shiftScenario(t *testing.T, store block.Backend) (*Instance, *workload.Workload) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	ds := relation.NewDataset()
	tab := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < 5000; i++ {
		tab.MustAppendRow(value.Int(int64(i)), value.Int(int64(rng.Intn(1000))), value.Int(int64(rng.Intn(500))))
	}
	ds.MustAddTable(tab)
	train, shift := workload.NewWorkload(), workload.NewWorkload()
	for k := int64(0); k < 8; k++ {
		q := workload.NewQuery("d"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("d", predicate.Ge, value.Int(k*62)))
		q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int((k+1)*62)))
		train.Add(q)
	}
	for k := int64(0); k < 5; k++ {
		q := workload.NewQuery("v"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("v", predicate.Ge, value.Int(k*200)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int((k+1)*200)))
		shift.Add(q)
	}
	return open(t, ds, train, core.Options{BlockSize: 250}, store), shift
}

// stageFor plans a q = ∞ reorganization of the instance for w and stages
// it, partially or as whole-table rewrites.
func stageFor(in *Instance, w *workload.Workload, partial bool) Stage {
	return func() (*core.StagedReorg, error) {
		plans, err := in.Optimizer().PlanReorg(w, core.ReorgConfig{Q: math.Inf(1), W: 100}, in.Design())
		if err != nil {
			return nil, err
		}
		return in.Optimizer().StageReorg(plans, in.Design(), in.Store(), partial)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestReorganizeSwapsGeneration: a commit bumps the generation once, runs
// onSwap with it, and replaces the engine while keeping its counters; a
// stage with nothing to install and a stage error change nothing, and a
// claimed slot rejects every other mutation until it is released.
func TestReorganizeSwapsGeneration(t *testing.T) {
	store := colstore.NewMemStore(block.DefaultCostModel())
	in, shift := shiftScenario(t, store)
	var swaps []uint64
	in.onSwap = func(gen uint64) { swaps = append(swaps, gen) }
	before, err := in.Execute(shift.Queries[0])
	if err != nil {
		t.Fatal(err)
	}

	run, err := in.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Reorganize(stageFor(in, shift, false)); !errors.Is(err, ErrBusy) {
		t.Errorf("second reorganization: %v, want ErrBusy", err)
	}
	if _, err := in.Insert("fact", nil); !errors.Is(err, ErrBusy) {
		t.Errorf("insert during a reorganization: %v, want ErrBusy", err)
	}
	if err := run(func() (*core.StagedReorg, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := in.Reorganize(func() (*core.StagedReorg, error) { return nil, errStage }); !errors.Is(err, errStage) {
		t.Errorf("stage error: %v", err)
	}
	if g := in.Generation(); g != 0 || len(swaps) != 0 {
		t.Fatalf("generation %d, swaps %v before any commit", g, swaps)
	}

	if err := in.Reorganize(stageFor(in, shift, false)); err != nil {
		t.Fatal(err)
	}
	after, err := in.Execute(shift.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.BlocksRead >= before.BlocksRead {
		t.Errorf("the commit did not reach the engine: %d → %d blocks", before.BlocksRead, after.BlocksRead)
	}
	st := in.Stats()
	if st.Generation != 1 || !reflect.DeepEqual(swaps, []uint64{1}) {
		t.Errorf("generation %d, swaps %v after one commit", st.Generation, swaps)
	}
	if st.Engine.Queries != 2 || st.Engine.BlocksRead != int64(before.BlocksRead+after.BlocksRead) {
		t.Errorf("engine counters across the swap: %+v", st.Engine)
	}
	if st.SwapLockLast <= 0 || st.SwapLockMax < st.SwapLockLast {
		t.Errorf("swap lock hold not recorded: %+v", st)
	}
}

var errStage = errors.New("stage failed")

// TestCloseDuringStage: Close while a reorganization stages — before the
// store prepares, or between prepare and commit — fails the reorganization,
// leaves the generation alone, and publishes no segment into the closed
// store's directory nor leaves a staged one behind.
func TestCloseDuringStage(t *testing.T) {
	for _, when := range []string{"before-prepare", "after-prepare"} {
		t.Run(when, func(t *testing.T) {
			dir := t.TempDir()
			store, err := colstore.NewStore(dir, 1<<20, block.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			in, shift := shiftScenario(t, store)
			installed := dirNames(t, dir)
			stage := stageFor(in, shift, false)
			err = in.Reorganize(func() (*core.StagedReorg, error) {
				if when == "before-prepare" {
					in.Close()
				}
				staged, err := stage()
				if when == "after-prepare" {
					if staged == nil || len(dirNames(t, dir)) == len(installed) {
						t.Errorf("nothing staged: %v, %v", staged, err)
					}
					in.Close()
				}
				return staged, err
			})
			if err == nil {
				t.Error("reorganization committed into a closed instance")
			}
			if g := in.Generation(); g != 0 {
				t.Errorf("generation %d after a refused commit", g)
			}
			if got := dirNames(t, dir); !reflect.DeepEqual(got, installed) {
				t.Errorf("data dir: %v, want %v", got, installed)
			}
			if err := in.Reorganize(stage); !errors.Is(err, ErrClosed) {
				t.Errorf("reorganization after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestQueriesRaceGenerationSwaps: readers execute a fixed TPC-H query set
// through the instance while it commits three reorganizations (whole-table
// and partial, alternating between two workloads). Every result must equal
// what a fresh engine returned at the generation it ran under; -race checks
// the lock protocol.
func TestQueriesRaceGenerationSwaps(t *testing.T) {
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.002, Seed: 1})
	train := datagen.TPCHWorkloadTemplates(1, 11, 2, 2)
	shifted := datagen.TPCHWorkloadTemplates(12, 22, 2, 3)
	queries := datagen.TPCHWorkload(1, 4).Queries
	store := colstore.NewMemStore(block.DefaultCostModel())
	defer store.Close()
	in := open(t, ds, train, core.Options{BlockSize: 200, JoinInduction: true,
		LeafOrderKeys: datagen.TPCHSortKeys(), Seed: 1}, store)

	// want[g][i] is query i on a fresh engine at generation g.
	var want [][]*engine.Result
	record := func() {
		rs := make([]*engine.Result, len(queries))
		for i, q := range queries {
			res, gen, err := in.ExecuteFresh(q)
			if err != nil {
				t.Fatal(err)
			}
			if gen != uint64(len(want)) {
				t.Fatalf("generation %d while recording generation %d", gen, len(want))
			}
			rs[i] = res
		}
		want = append(want, rs)
	}
	record()

	type observed struct {
		gen uint64
		i   int
		res *engine.Result
		err error
	}
	const readers = 4
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		ran  = make(chan struct{}) // one receive per execution the test waits for
		got  [readers][]observed
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; !stop.Load(); n++ {
				i := n % len(queries)
				gen, eng := in.RLock()
				res, err := eng.Execute(queries[i])
				in.RUnlock()
				got[r] = append(got[r], observed{gen, i, res, err})
				select {
				case ran <- struct{}{}:
				default:
				}
			}
		}(r)
	}
	// waitExecuted lets the readers run n more queries at the current
	// generation (the test is the instance's only mutator).
	waitExecuted := func(n int) {
		for ; n > 0; n-- {
			<-ran
		}
	}

	moved := 0
	for k, w := range []*workload.Workload{shifted, train, shifted} {
		waitExecuted(len(queries))
		var staged *core.StagedReorg
		stage := stageFor(in, w, k%2 == 1)
		if err := in.Reorganize(func() (s *core.StagedReorg, err error) {
			staged, err = stage()
			return staged, err
		}); err != nil {
			t.Fatal(err)
		}
		moved += staged.Stats.RowsMoved
		record()
	}
	waitExecuted(len(queries))
	stop.Store(true)
	wg.Wait()

	if moved == 0 {
		t.Error("no reorganization moved a row")
	}
	gens := map[uint64]int{}
	for r := range got {
		for _, o := range got[r] {
			if o.err != nil {
				t.Fatalf("%s at generation %d: %v", queries[o.i].ID, o.gen, o.err)
			}
			gens[o.gen]++
			if !reflect.DeepEqual(o.res, want[o.gen][o.i]) {
				t.Errorf("%s at generation %d differs from a fresh engine", queries[o.i].ID, o.gen)
			}
		}
	}
	if len(gens) != len(want) {
		t.Errorf("readers ran at generations %v, want all %d", gens, len(want))
	}
}

// TestInsertSwapsGeneration: an insert is a layout change like a commit —
// the next generation and a fresh engine — and the inserted rows are found.
func TestInsertSwapsGeneration(t *testing.T) {
	store := colstore.NewMemStore(block.DefaultCostModel())
	in, shift := shiftScenario(t, store)
	fact := in.ds.Table("fact")
	q := shift.Queries[0]
	before, err := in.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	n := fact.NumRows()
	fact.MustAppendRow(value.Int(int64(n)), value.Int(0), value.Int(0))
	if _, err := in.Insert("fact", []int{n}); err != nil {
		t.Fatal(err)
	}
	if g := in.Generation(); g != 1 {
		t.Errorf("generation %d after an insert, want 1", g)
	}
	after, err := in.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.SurvivingRows["fact"] != before.SurvivingRows["fact"]+1 {
		t.Errorf("inserted row not found: %d → %d survivors", before.SurvivingRows["fact"], after.SurvivingRows["fact"])
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Insert("fact", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after Close: %v, want ErrClosed", err)
	}
}

// gatedBackend runs hook before every block replacement it prepares: the
// hook may hold the prepare at a gate, or fail it.
type gatedBackend struct {
	block.Backend
	hook func() error
}

func (b gatedBackend) PrepareReplace(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (block.Prepared, error) {
	if err := b.hook(); err != nil {
		return nil, err
	}
	return b.Backend.PrepareReplace(table, oldIDs, newGroups, blockSize)
}

// TestFailedInsertKeepsGeneration: an insert whose rows are not exactly the
// rows the layout lacks, or whose prepare fails, returns an error and
// leaves the generation and every answer where they were; the same insert
// then goes through.
func TestFailedInsertKeepsGeneration(t *testing.T) {
	var failing atomic.Bool
	in, shift := shiftScenario(t, gatedBackend{colstore.NewMemStore(block.DefaultCostModel()), func() error {
		if failing.Load() {
			return errStage
		}
		return nil
	}})
	q := shift.Queries[0]
	before, err := in.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	fact := in.ds.Table("fact")
	n := fact.NumRows()
	fact.MustAppendRow(value.Int(int64(n)), value.Int(0), value.Int(0))
	for _, rows := range [][]int{nil, {n - 1}, {n + 1}, {-1}, {n, n}, {0, n}} {
		if _, err := in.Insert("fact", rows); err == nil {
			t.Errorf("insert of rows %v accepted", rows)
		}
	}
	failing.Store(true)
	if _, err := in.Insert("fact", []int{n}); !errors.Is(err, errStage) {
		t.Errorf("insert with a failing prepare: %v", err)
	}
	if g := in.Generation(); g != 0 {
		t.Errorf("generation %d after failed inserts, want 0", g)
	}
	if res, err := in.Execute(q); err != nil || !reflect.DeepEqual(res, before) {
		t.Errorf("answer after failed inserts: %v, %+v; want %+v", err, res, before)
	}
	failing.Store(false)
	if _, err := in.Insert("fact", []int{n}); err != nil {
		t.Fatal(err)
	}
	if g := in.Generation(); g != 1 {
		t.Errorf("generation %d after the insert, want 1", g)
	}
}

// TestQueriesServedWhileInsertStages: an insert holds the write lock for its
// commit only. With the insert held inside the store's prepare, a query
// completes at the old generation; once released, the insert commits, the
// generation moves and the swap lock records the commit.
func TestQueriesServedWhileInsertStages(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	in, shift := shiftScenario(t, gatedBackend{colstore.NewMemStore(block.DefaultCostModel()), func() error {
		entered <- struct{}{}
		<-release
		return nil
	}})
	q := shift.Queries[0]
	before, err := in.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	fact := in.ds.Table("fact")
	n := fact.NumRows()
	fact.MustAppendRow(value.Int(int64(n)), value.Int(0), value.Int(0))
	done := make(chan error, 1)
	go func() {
		_, err := in.Insert("fact", []int{n})
		done <- err
	}()
	<-entered
	res, err := in.Execute(q)
	if err != nil || !reflect.DeepEqual(res, before) {
		t.Errorf("query while the insert stages: %v, %+v; want %+v", err, res, before)
	}
	if st := in.Stats(); st.Generation != 0 || st.SwapLockLast != 0 {
		t.Errorf("while the insert stages: %+v", st)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.Generation != 1 || st.SwapLockLast <= 0 {
		t.Errorf("after the insert: %+v", st)
	}
	after, err := in.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.SurvivingRows["fact"] != before.SurvivingRows["fact"]+1 {
		t.Errorf("inserted row not found: %d → %d survivors", before.SurvivingRows["fact"], after.SurvivingRows["fact"])
	}
}
