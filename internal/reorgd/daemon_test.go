package reorgd

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mto/internal/block"
	"mto/internal/block/blocktest"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/live"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// daemonScenario builds a single-table dataset with a d-range-partitioned
// layout and a shifted workload of v-range queries confined to d < 250 —
// the same regime as the core partial-reorg tests, sized for fast cycles.
// The layout is installed in store (a fresh mem store when nil) and served
// by the returned instance.
func daemonScenario(t *testing.T, seed int64, store block.Backend) (*live.Instance, []*workload.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := relation.NewDataset()
	tab := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < 20000; i++ {
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
	var shift []*workload.Query
	for k := int64(0); k < 5; k++ {
		q := workload.NewQuery("v"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int(250)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Ge, value.Int(k*200)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int((k+1)*200)))
		shift = append(shift, q)
	}

	mto, err := core.Optimize(ds, trainW, core.Options{BlockSize: 500, JoinInduction: false})
	if err != nil {
		t.Fatal(err)
	}
	design, err := mto.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		store = colstore.NewMemStore(block.DefaultCostModel())
	}
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	return live.New(mto, design, store, ds, engine.DefaultOptions(), nil), shift
}

// feed executes 20 shifted queries (from offset c*20) through the instance
// and observes them, returning the mean blocks read.
func feed(t *testing.T, in *live.Instance, d *Daemon, shift []*workload.Query, c int) float64 {
	t.Helper()
	blocks := 0
	for i := 0; i < 20; i++ {
		q := shift[(c*20+i)%len(shift)]
		res, err := in.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		tb := map[string]int{}
		for name, ta := range res.PerTable {
			tb[name] = ta.BlocksRead
		}
		d.Observe(q, tb)
		blocks += res.BlocksRead
	}
	return float64(blocks) / 20
}

// runDaemon drives cycles of 20 shifted queries each and returns the trace
// plus per-cycle mean blocks read.
func runDaemon(t *testing.T, seed int64, cfg Config, cycles int) ([]CycleStats, []float64) {
	t.Helper()
	in, shift := daemonScenario(t, seed, nil)
	d := New(in, cfg)
	var perCycle []float64
	for c := 0; c < cycles; c++ {
		perCycle = append(perCycle, feed(t, in, d, shift, c))
		cs, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if cs.Action == "reorg" {
			blocktest.ReadLayout(t, in.Store(), "fact")
		}
	}
	return d.Trace(), perCycle
}

// TestDaemonReorganizesUnderBudget: the daemon must detect the shift,
// install at least one partial reorganization without ever exceeding the
// per-cycle write budget, and the shifted queries must get cheaper.
func TestDaemonReorganizesUnderBudget(t *testing.T) {
	cfg := Config{Budget: 30, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100}
	trace, perCycle := runDaemon(t, 4, cfg, 6)
	reorgs := 0
	for _, cs := range trace {
		if cs.Action == "reorg" {
			reorgs++
			if cs.BlocksWritten > cfg.Budget {
				t.Errorf("cycle %d wrote %d blocks, budget %d", cs.Cycle, cs.BlocksWritten, cfg.Budget)
			}
			if cs.BlocksWritten == 0 || len(cs.Tables) == 0 {
				t.Errorf("cycle %d: incomplete reorg stats %+v", cs.Cycle, cs)
			}
		}
	}
	if reorgs == 0 {
		t.Fatalf("daemon never reorganized; trace: %+v", trace)
	}
	first, last := perCycle[0], perCycle[len(perCycle)-1]
	if last >= first {
		t.Errorf("shifted queries did not get cheaper: %.1f → %.1f blocks/query", first, last)
	}
}

// TestDaemonDeterministic: at a fixed seed the full cycle trace (actions,
// scores, writes) must be identical across repeats.
func TestDaemonDeterministic(t *testing.T) {
	cfg := Config{Budget: 15, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100}
	t1, b1 := runDaemon(t, 4, cfg, 5)
	t2, b2 := runDaemon(t, 4, cfg, 5)
	if !reflect.DeepEqual(t1, t2) {
		t.Errorf("traces differ:\n%+v\n%+v", t1, t2)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Errorf("per-cycle blocks differ: %v vs %v", b1, b2)
	}
}

// TestDaemonIdleBelowThreshold: with too few observations the daemon must
// not act at all.
func TestDaemonIdle(t *testing.T) {
	in, shift := daemonScenario(t, 4, nil)
	store := in.Store()
	d := New(in, Config{MinCycleQueries: 50})
	for i := 0; i < 10; i++ {
		d.Observe(shift[0], map[string]int{"fact": 5})
	}
	before := store.Stats()
	cs, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Action != "idle" {
		t.Errorf("action = %q, want idle", cs.Action)
	}
	if delta := store.Stats().Sub(before); delta != (block.Stats{}) {
		t.Errorf("idle cycle touched the store: %+v", delta)
	}
}

// TestDaemonRun: Run steps a cycle every Interval until its context is
// cancelled and then returns nil, and each install it runs is one
// generation swap, as under Step.
func TestDaemonRun(t *testing.T) {
	in, shift := daemonScenario(t, 4, nil)
	d := New(in, Config{Budget: 30, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100,
		Interval: time.Millisecond})
	feed(t, in, d, shift, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	deadline := time.After(time.Minute)
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	for len(d.Trace()) < 3 {
		select {
		case err := <-runErr:
			t.Fatalf("Run returned %v before its context was cancelled", err)
		case <-deadline:
			t.Fatalf("Run stepped %d cycles in a minute, want 3", len(d.Trace()))
		case <-poll.C:
		}
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run after cancel = %v, want nil", err)
	}
	trace := d.Trace()
	if trace[0].Action != "reorg" {
		t.Errorf("first cycle: %+v, want a reorg of the observed shift", trace[0])
	}
	reorgs := 0
	for i, cs := range trace {
		if cs.Cycle != i {
			t.Errorf("trace[%d].Cycle = %d", i, cs.Cycle)
		}
		if cs.Action == "reorg" {
			reorgs++
		}
	}
	if g := in.Generation(); g != uint64(reorgs) {
		t.Errorf("generation %d after %d reorg cycles", g, reorgs)
	}
}

// TestDaemonRunReturnsStepError: Run stops at the first cycle that fails
// and returns its error — here a cycle planning over an instance (and its
// store) closed after the queries were observed.
func TestDaemonRunReturnsStepError(t *testing.T) {
	in, shift := daemonScenario(t, 4, nil)
	d := New(in, Config{Budget: 30, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100,
		Interval: time.Millisecond})
	feed(t, in, d, shift, 0)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx) }()
	select {
	case err := <-runErr:
		if err == nil || !strings.HasPrefix(err.Error(), "reorgd: ") {
			t.Errorf("Run = %v, want the failing cycle's error", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run did not return within a minute of a failing cycle")
	}
	if n := len(d.Trace()); n != 1 {
		t.Errorf("Run stepped %d cycles, want to stop at the first, failing one", n)
	}
	if g := in.Generation(); g != 0 {
		t.Errorf("generation %d after a failed cycle, want 0", g)
	}
}

// TestDaemonConcurrentObserve races Observe from many goroutines against
// Step and Trace (the serving layer's access pattern; -race is the real
// assertion) and checks no observation is lost.
func TestDaemonConcurrentObserve(t *testing.T) {
	in, shift := daemonScenario(t, 4, nil)
	d := New(in, Config{Budget: 15, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100})

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d.Observe(shift[(w+i)%len(shift)], map[string]int{"fact": 5 + i%3})
			}
		}(w)
	}
	stepDone := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := d.Step(); err != nil {
				stepDone <- err
				return
			}
			_ = d.Trace()
		}
		stepDone <- nil
	}()
	wg.Wait()
	if err := <-stepDone; err != nil {
		t.Fatal(err)
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if got := d.log.Seq(); got != workers*perWorker { // the last Step drained the inbox
		t.Fatalf("log saw %d observations, want %d", got, workers*perWorker)
	}
}

// TestDaemonInstallWrap: every install is one generation swap of the
// daemon's instance — the generation moves once per "reorg" cycle and never
// otherwise — and a commit the backend refuses fails the cycle, aborts the
// staged segment and leaves the generation and the write counters as they
// were.
func TestDaemonInstallWrap(t *testing.T) {
	in, shift := daemonScenario(t, 4, nil)
	d := New(in, Config{Budget: 30, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100})
	reorgs := 0
	for c := 0; c < 6; c++ {
		feed(t, in, d, shift, c)
		cs, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if cs.Action == "reorg" {
			reorgs++
		}
		if got := in.Generation(); got != uint64(reorgs) {
			t.Fatalf("cycle %d (%s): generation %d after %d reorgs", c, cs.Action, got, reorgs)
		}
	}
	if reorgs == 0 {
		t.Fatal("daemon never reorganized")
	}

	// A refused commit must fail the cycle that tries to install, and the
	// segment the cycle had staged must go: a file store shows it.
	store, err := colstore.NewStore(t.TempDir(), 1<<20, block.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	in2, shift2 := daemonScenario(t, 4, refusingBackend{store})
	installed := store.Stats()
	d2 := New(in2, Config{Budget: 30, Window: 64, MinCycleQueries: 16, TopK: 1, Q: 300, W: 100})
	var stepErr error
	for c := 0; c < 6 && stepErr == nil; c++ {
		feed(t, in2, d2, shift2, c)
		_, stepErr = d2.Step()
	}
	if !errors.Is(stepErr, errCommit) {
		t.Errorf("commit error not propagated: %v", stepErr)
	}
	if g := in2.Generation(); g != 0 {
		t.Errorf("generation %d after a refused commit, want 0", g)
	}
	if w := store.Stats(); w.BlocksWritten != installed.BlocksWritten || w.RowsWritten != installed.RowsWritten {
		t.Errorf("failed cycle charged writes: %+v, installed %+v", w, installed)
	}
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fact-00000001.seg" {
		t.Errorf("store directory after the failed cycle: %v, want the installed segment alone", entries)
	}
}

var errCommit = errors.New("commit refused")

// refusingBackend stages partial reorganizations normally but refuses to
// commit them.
type refusingBackend struct{ block.Backend }

func (b refusingBackend) PrepareReplace(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (block.Prepared, error) {
	p, err := b.Backend.PrepareReplace(table, oldIDs, newGroups, blockSize)
	if err != nil {
		return nil, err
	}
	return refusedCommit{p}, nil
}

type refusedCommit struct{ block.Prepared }

func (refusedCommit) Commit() (float64, error) { return 0, errCommit }
