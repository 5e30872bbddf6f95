package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/reorgd"
	"mto/internal/value"
	"mto/internal/workload"
)

// serveScenario builds one tenant over a single-table dataset with a
// d-range-partitioned layout (trained on 8 d-range templates) plus 5
// shifted v-range templates the layout serves poorly — the same regime as
// the reorgd tests, so a daemon fed the shifted queries reliably installs
// a partial reorganization. Some templates carry aggregates and a GROUP BY
// so cache copies and reordering are exercised.
func serveScenario(t testing.TB, name string, seed int64, withReorg bool) (TenantConfig, []*workload.Query) {
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

	train := workload.NewWorkload()
	for k := int64(0); k < 8; k++ {
		q := workload.NewQuery("d"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("d", predicate.Ge, value.Int(k*62)))
		q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int((k+1)*62)))
		q.Aggregate(workload.AggCount, "fact", "")
		train.Add(q)
	}
	var shift []*workload.Query
	for k := int64(0); k < 5; k++ {
		q := workload.NewQuery("v"+string(rune('0'+k)), workload.TableRef{Table: "fact"})
		q.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int(250)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Ge, value.Int(k*200)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int((k+1)*200)))
		q.Aggregate(workload.AggSum, "fact", "v")
		q.Aggregate(workload.AggCount, "fact", "")
		if k == 0 {
			q.GroupByCol("fact", "d")
		}
		shift = append(shift, q)
	}

	opt, err := core.Optimize(ds, train, core.Options{BlockSize: 500, JoinInduction: false})
	if err != nil {
		t.Fatal(err)
	}
	design, err := opt.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	store := colstore.NewMemStore(block.DefaultCostModel())
	t.Cleanup(func() { store.Close() })
	if _, err := design.Install(store, nil, 0); err != nil {
		t.Fatal(err)
	}
	cfg := TenantConfig{
		Name:      name,
		Dataset:   ds,
		Design:    design,
		Store:     store,
		Optimizer: opt,
		Templates: append(append([]*workload.Query{}, train.Queries...), shift...),
	}
	if withReorg {
		// Interval is huge: tests drive cycles deterministically through
		// StepTenant, never the background ticker.
		cfg.Reorg = &reorgd.Config{Budget: 30, Window: 64, MinCycleQueries: 16,
			TopK: 1, Q: 300, W: 100, Interval: time.Hour}
	}
	return cfg, shift
}

func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// TestServeIdentity: every served response — first execution (cache miss)
// and repeat (cache hit) — must be byte-identical to a direct engine
// execution of the same query at the same generation, across two tenants.
func TestServeIdentity(t *testing.T) {
	cfgA, _ := serveScenario(t, "alpha", 4, false)
	cfgB, _ := serveScenario(t, "beta", 9, false)
	s := startServer(t, Config{Tenants: []TenantConfig{cfgA, cfgB}, Workers: 4})

	ctx := context.Background()
	for _, tc := range []TenantConfig{cfgA, cfgB} {
		for _, q := range tc.Templates {
			first, err := s.SubmitID(ctx, tc.Name, q.ID)
			if err != nil {
				t.Fatal(err)
			}
			if first.Cached {
				t.Fatalf("%s/%s: first submission was a cache hit", tc.Name, q.ID)
			}
			second, err := s.SubmitID(ctx, tc.Name, q.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Cached {
				t.Fatalf("%s/%s: repeat submission missed the cache", tc.Name, q.ID)
			}
			direct, gen, err := s.ExecuteDirect(tc.Name, q)
			if err != nil {
				t.Fatal(err)
			}
			if gen != first.Gen || gen != second.Gen {
				t.Fatalf("%s/%s: generation moved during test", tc.Name, q.ID)
			}
			if !reflect.DeepEqual(first.Result, direct) {
				t.Errorf("%s/%s: miss result differs from direct:\n%+v\n%+v", tc.Name, q.ID, first.Result, direct)
			}
			if !reflect.DeepEqual(second.Result, direct) {
				t.Errorf("%s/%s: cached result differs from direct:\n%+v\n%+v", tc.Name, q.ID, second.Result, direct)
			}
		}
	}
	st := s.Stats()
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Errorf("cache counters not exercised: %+v", st.Cache)
	}
	if st.Errors != 0 {
		t.Errorf("unexpected errors: %d", st.Errors)
	}
}

// TestServePermutedQueryHit: a query that is a syntactic permutation of a
// cached one (conjuncts and aggregates declared in a different order,
// different ID) must hit the cache and still be byte-identical to its own
// direct execution — the Normalize + ReorderAggregates contract end to end.
func TestServePermutedQueryHit(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, false)
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 2})
	ctx := context.Background()

	orig := shift[1] // v1: flat sum + count, no group-by
	if _, err := s.Submit(ctx, "alpha", orig); err != nil {
		t.Fatal(err)
	}

	perm := workload.NewQuery("permuted-twin", workload.TableRef{Table: "fact"})
	perm.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(400)))
	perm.Filter("fact", predicate.NewComparison("v", predicate.Ge, value.Int(200)))
	perm.Filter("fact", predicate.NewComparison("d", predicate.Lt, value.Int(250)))
	perm.Aggregate(workload.AggCount, "fact", "") // declaration order swapped
	perm.Aggregate(workload.AggSum, "fact", "v")

	resp, err := s.Submit(ctx, "alpha", perm)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("permuted twin missed the cache")
	}
	direct, gen, err := s.ExecuteDirect("alpha", perm)
	if err != nil {
		t.Fatal(err)
	}
	if gen != resp.Gen {
		t.Fatal("generation moved during test")
	}
	if !reflect.DeepEqual(resp.Result, direct) {
		t.Errorf("cached permuted result differs from direct:\n%+v\n%+v", resp.Result, direct)
	}
	if resp.Result.Query != "permuted-twin" {
		t.Errorf("cached result kept the original query ID: %q", resp.Result.Query)
	}
}

// TestCacheInvalidationAcrossSwap drives the tenant's reorg daemon through
// the server while serving the shifted workload: a cached entry is served
// before the reorg, the generation swap invalidates it, and the post-swap
// execution is byte-identical to fresh direct execution under the new
// layout (with the layout-invariant fields unchanged from before the
// swap). Concurrent submitters race the swap; -race is part of the
// assertion.
func TestCacheInvalidationAcrossSwap(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, true)
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 4})
	ctx := context.Background()

	probe := shift[2]
	pre, err := s.Submit(ctx, "alpha", probe)
	if err != nil {
		t.Fatal(err)
	}
	preHit, err := s.Submit(ctx, "alpha", probe)
	if err != nil {
		t.Fatal(err)
	}
	if !preHit.Cached || !reflect.DeepEqual(pre.Result, preHit.Result) {
		t.Fatal("probe not cached before the swap")
	}

	// Serve the shifted pool (daemon observes every execution, hits
	// included) and step cycles until one installs, with concurrent
	// submitters racing the install.
	swapped := false
	for cycle := 0; cycle < 8 && !swapped; cycle++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if _, err := s.Submit(ctx, "alpha", shift[(w+i)%len(shift)]); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		cs, err := s.StepTenant("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if cs.Action == "reorg" {
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("daemon never installed a reorganization")
	}
	if got := s.Generation("alpha"); got != pre.Gen+1 {
		t.Fatalf("generation = %d after swap, want %d", got, pre.Gen+1)
	}
	if ts := s.Stats().Tenants[0]; ts.SwapLockLastUS <= 0 || ts.SwapLockMaxUS < ts.SwapLockLastUS {
		t.Errorf("install lock hold not recorded after a swap: last %g µs, max %g µs", ts.SwapLockLastUS, ts.SwapLockMaxUS)
	}

	post, err := s.Submit(ctx, "alpha", probe)
	if err != nil {
		t.Fatal(err)
	}
	if post.Cached {
		t.Fatal("probe still served from cache after the generation swap")
	}
	if post.Gen != pre.Gen+1 {
		t.Fatalf("post-swap response gen = %d, want %d", post.Gen, pre.Gen+1)
	}
	direct, gen, err := s.ExecuteDirect("alpha", probe)
	if err != nil {
		t.Fatal(err)
	}
	if gen != post.Gen {
		t.Fatal("generation moved between post-swap submit and direct execution")
	}
	if !reflect.DeepEqual(post.Result, direct) {
		t.Errorf("post-swap result differs from direct execution:\n%+v\n%+v", post.Result, direct)
	}
	// Layout-invariant payload is unchanged across the swap; physical
	// accounting (blocks read) may differ — that is the point of the reorg.
	if !reflect.DeepEqual(pre.Result.SurvivingRows, post.Result.SurvivingRows) {
		t.Errorf("surviving rows changed across swap: %v vs %v", pre.Result.SurvivingRows, post.Result.SurvivingRows)
	}
	if !reflect.DeepEqual(pre.Result.Aggregates, post.Result.Aggregates) {
		t.Errorf("aggregates changed across swap:\n%+v\n%+v", pre.Result.Aggregates, post.Result.Aggregates)
	}

	// The hit must come back under the new generation.
	postHit, err := s.Submit(ctx, "alpha", probe)
	if err != nil {
		t.Fatal(err)
	}
	if !postHit.Cached || !reflect.DeepEqual(postHit.Result, direct) {
		t.Error("post-swap repeat not served identically from cache")
	}

	// The engine counters span the swap: every cache miss since start
	// executed on one of the tenant's engines, the retired one included.
	st := s.Stats()
	if got, want := st.Tenants[0].Engine.Queries, st.Cache.Misses; got != want || st.Errors != 0 {
		t.Errorf("engine.queries = %d after the swap, want %d cache-miss executions (errors %d)", got, want, st.Errors)
	}
}

// gatedBackend holds every partial-reorganization prepare at a gate: it
// announces the prepare on entered, then waits for release.
type gatedBackend struct {
	block.Backend
	entered, release chan struct{}
}

func (b gatedBackend) PrepareReplace(table string, oldIDs map[int]bool, newGroups [][]int32, blockSize int) (block.Prepared, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.PrepareReplace(table, oldIDs, newGroups, blockSize)
}

// TestQueriesServedWhileStaging: the tenant's write lock covers the commit
// of a reorganization, not its staging. With the daemon's cycle held inside
// the store's prepare, a query that misses the cache still executes and the
// generation has not moved; once the prepare is released the cycle commits,
// the generation is g+1 and the cached results of g are gone.
func TestQueriesServedWhileStaging(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, true)
	gate := gatedBackend{Backend: cfg.Store, entered: make(chan struct{}), release: make(chan struct{})}
	cfg.Store = gate
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Feed the daemon the shifted pool and step it until a cycle reaches
	// the store's prepare.
	type stepResult struct {
		cs  reorgd.CycleStats
		err error
	}
	stepDone := make(chan stepResult, 1)
	staging := false
	for cycle := 0; cycle < 8 && !staging; cycle++ {
		for i := 0; i < 32; i++ {
			if _, err := s.Submit(ctx, "alpha", shift[i%len(shift)]); err != nil {
				t.Fatal(err)
			}
		}
		go func() {
			cs, err := s.StepTenant("alpha")
			stepDone <- stepResult{cs, err}
		}()
		select {
		case <-gate.entered:
			staging = true
		case r := <-stepDone:
			if r.err != nil {
				t.Fatal(r.err)
			}
		}
	}
	if !staging {
		t.Fatal("daemon never staged a reorganization")
	}

	gen := s.Generation("alpha")
	hit, err := s.Submit(ctx, "alpha", shift[2])
	if err != nil || !hit.Cached || hit.Gen != gen {
		t.Fatalf("cached probe while staging: %+v, %v", hit, err)
	}
	fresh := s.Template("alpha", "d3") // never submitted: executes through the engine
	miss, err := s.Submit(ctx, "alpha", fresh)
	if err != nil {
		t.Fatalf("query submitted while a reorganization is staged: %v", err)
	}
	if miss.Cached || miss.Gen != gen {
		t.Errorf("query while staging: cached=%v gen=%d, want an execution at gen %d", miss.Cached, miss.Gen, gen)
	}
	if got := s.Generation("alpha"); got != gen {
		t.Fatalf("generation moved to %d while the reorganization was only staged", got)
	}

	close(gate.release)
	r := <-stepDone
	if r.err != nil || r.cs.Action != "reorg" {
		t.Fatalf("released cycle: %+v, %v", r.cs, r.err)
	}
	if got := s.Generation("alpha"); got != gen+1 {
		t.Fatalf("generation = %d after the commit, want %d", got, gen+1)
	}
	for _, q := range []*workload.Query{shift[2], fresh} {
		post, err := s.Submit(ctx, "alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		if post.Cached || post.Gen != gen+1 {
			t.Errorf("%s after the commit: cached=%v gen=%d, want a fresh execution at gen %d", q.ID, post.Cached, post.Gen, gen+1)
		}
		direct, _, err := s.ExecuteDirect("alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(post.Result, direct) {
			t.Errorf("%s after the commit differs from direct execution", q.ID)
		}
		if q == fresh && !reflect.DeepEqual(post.Result.Aggregates, miss.Result.Aggregates) {
			t.Errorf("%s: aggregates changed across the swap:\n%+v\n%+v", q.ID, miss.Result.Aggregates, post.Result.Aggregates)
		}
	}
}

// TestGracefulShutdown: with submissions in flight, Shutdown must let
// every accepted query complete successfully, reject new submissions with
// ErrShuttingDown, and leak no goroutines.
func TestGracefulShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg, shift := serveScenario(t, "alpha", 4, true)
	s, err := New(Config{Tenants: []TenantConfig{cfg}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	// Senders submit until each observes the drain rejection (capped), so
	// the shutdown is guaranteed to race in-flight submissions regardless
	// of how fast queries execute.
	ctx := context.Background()
	var accepted, completed, shutdownRejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				resp, err := s.Submit(ctx, "alpha", shift[(w+i)%len(shift)])
				switch {
				case err == nil:
					accepted.Add(1)
					if resp.Result == nil {
						t.Error("accepted query completed without a result")
					} else {
						completed.Add(1)
					}
				case errors.Is(err, ErrShuttingDown):
					shutdownRejected.Add(1)
					return
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(w)
	}
	// Drain once queries are flowing, concurrently with the senders.
	for accepted.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if accepted.Load() == 0 {
		t.Error("no query was accepted before the drain")
	}
	if completed.Load() != accepted.Load() {
		t.Errorf("accepted %d but completed %d", accepted.Load(), completed.Load())
	}
	if shutdownRejected.Load() == 0 {
		t.Error("no submission observed the drain rejection")
	}
	if _, err := s.Submit(ctx, "alpha", shift[0]); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit: %v, want ErrShuttingDown", err)
	}

	// All daemon loops must be gone before the store is closed: executing
	// queries starts no goroutine that outlives them, the store's included.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	if err := cfg.Store.(*colstore.Store).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionControl: an exhausted token bucket rejects with
// ErrRateLimited; a refilled one admits again.
func TestAdmissionControl(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, false)
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 2, Rate: 0.001, Burst: 2})
	ctx := context.Background()
	admitted, limited := 0, 0
	for i := 0; i < 5; i++ {
		_, err := s.Submit(ctx, "alpha", shift[0])
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrRateLimited):
			limited++
		default:
			t.Fatal(err)
		}
	}
	if admitted != 2 || limited != 3 {
		t.Errorf("admitted %d, limited %d; want 2 and 3 (burst 2, negligible refill)", admitted, limited)
	}
	st := s.Stats()
	if st.RejectedRate != int64(limited) {
		t.Errorf("RejectedRate = %d, want %d", st.RejectedRate, limited)
	}
}

// TestUnknownTenantAndQuery covers the lookup error paths.
func TestUnknownTenantAndQuery(t *testing.T) {
	cfg, _ := serveScenario(t, "alpha", 4, false)
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 1})
	if _, err := s.SubmitID(context.Background(), "nope", "d0"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant: %v", err)
	}
	if _, err := s.SubmitID(context.Background(), "alpha", "nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("unknown query: %v", err)
	}
}

// TestServedEqualsDirectAcrossDaemonSwap: the tenant's daemon installs a
// reorganization while four submitters keep the tenant busy. Every response
// served before, during and after the swap, hit or miss, equals a direct
// execution at the generation the response reports.
func TestServedEqualsDirectAcrossDaemonSwap(t *testing.T) {
	cfg, shift := serveScenario(t, "alpha", 4, true)
	s := startServer(t, Config{Tenants: []TenantConfig{cfg}, Workers: 4})
	ctx := context.Background()

	// direct[gen][id] is each shifted template executed directly at gen.
	direct := map[uint64]map[string]*engine.Result{}
	snapshot := func() uint64 {
		gen := s.Generation("alpha")
		byID := map[string]*engine.Result{}
		for _, q := range shift {
			res, g, err := s.ExecuteDirect("alpha", q)
			if err != nil {
				t.Fatal(err)
			}
			if g != gen {
				t.Fatal("generation moved while executing directly")
			}
			byID[q.ID] = res
		}
		direct[gen] = byID
		return gen
	}
	g0 := snapshot()

	type served struct {
		id   string
		resp Response
	}
	var (
		mu        sync.Mutex
		responses []served
		total     atomic.Int64
		later     atomic.Int64 // responses at a generation past g0
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				q := shift[i%len(shift)]
				resp, err := s.Submit(ctx, "alpha", q)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				responses = append(responses, served{q.ID, resp})
				mu.Unlock()
				if resp.Gen != g0 {
					later.Add(1)
				}
				total.Add(1)
			}
		}(w)
	}
	// waitFor spins until cond holds or the submitters have stalled.
	waitFor := func(cond func() bool) {
		deadline := time.Now().Add(30 * time.Second)
		for !cond() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	swapped := false
	for cycle := 0; cycle < 8 && !swapped; cycle++ {
		// A cycle plans only after MinCycleQueries new observations.
		seen := total.Load()
		waitFor(func() bool { return total.Load() >= seen+32 })
		cs, err := s.StepTenant("alpha")
		if err != nil {
			t.Fatal(err)
		}
		swapped = cs.Action == "reorg"
	}
	if swapped {
		waitFor(func() bool { return later.Load() >= 64 })
	}
	stop.Store(true)
	wg.Wait()
	if !swapped {
		t.Fatal("daemon never installed a reorganization")
	}
	if g1 := snapshot(); g1 != g0+1 {
		t.Fatalf("generation = %d after one swap, want %d", g1, g0+1)
	}

	perGen := map[uint64]int{}
	for _, sv := range responses {
		want, ok := direct[sv.resp.Gen][sv.id]
		if !ok {
			t.Fatalf("%s served at generation %d, want %d or %d", sv.id, sv.resp.Gen, g0, g0+1)
		}
		if !reflect.DeepEqual(sv.resp.Result, want) {
			t.Errorf("%s at generation %d (cached %v): served result differs from direct:\n%+v\n%+v",
				sv.id, sv.resp.Gen, sv.resp.Cached, sv.resp.Result, want)
		}
		perGen[sv.resp.Gen]++
	}
	if perGen[g0] == 0 || perGen[g0+1] == 0 {
		t.Errorf("responses per generation %v: the swap did not land between submissions", perGen)
	}
	st := s.Stats()
	if st.Errors != 0 || st.Tenants[0].DaemonErr != "" {
		t.Errorf("errors %d, daemon error %q", st.Errors, st.Tenants[0].DaemonErr)
	}
}
