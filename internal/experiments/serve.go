package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mto/internal/reorgd"
	"mto/internal/serve"
	"mto/internal/workload"
)

// ServeScenario parameterizes the sustained-load serving experiment: three
// tenants (SSB, TPC-H, TPC-DS) behind one serve.Server, the TPC-H tenant
// trained on templates 1–11 while its live traffic drifts into 12–22 so the
// background reorg daemon installs at least one generation swap mid-load.
type ServeScenario struct {
	// Queries is the total submission count across all tenants
	// (default 100 000; the published benchmark runs 1 000 000).
	Queries int64
	// Concurrency is the load generator's closed-loop client count
	// (default 8); Workers the server's executor pool (default 8).
	Concurrency int
	Workers     int
	// Rate/Burst configure admission control (0 disables; the benchmark
	// measures capacity, so it runs unthrottled by default).
	Rate, Burst float64
	// OpenRateQPS > 0 paces the load generator as an open loop. Smoke-scale
	// runs need it: an unthrottled small load finishes inside one daemon
	// tick, so the workload shift never crosses a planning window.
	OpenRateQPS float64
	// VerifyEveryN re-executes every Nth served query directly and demands
	// byte-identity at equal generation (default 1000).
	VerifyEveryN int64
	// Seed drives the drift stream and load-generator choices.
	Seed int64
	// CacheEntries caps the result cache (default 4096).
	CacheEntries int
	// Budget / Interval configure the TPC-H tenant's live daemon: blocks
	// written per cycle (default 40) and the background cycle period
	// (default 25ms — many cycles land inside even a short load).
	Budget   int
	Interval time.Duration
	// StreamLen is the TPC-H drift-stream length (default 4096); the load
	// generator walks it in issue order, so the 1–11 → 12–22 cross-fade
	// arrives as an actual temporal shift.
	StreamLen int
}

func (sc ServeScenario) withDefaults() ServeScenario {
	if sc.Queries == 0 {
		sc.Queries = 100_000
	}
	if sc.Concurrency == 0 {
		sc.Concurrency = 8
	}
	if sc.Workers == 0 {
		sc.Workers = 8
	}
	if sc.VerifyEveryN == 0 {
		sc.VerifyEveryN = 1000
	}
	if sc.CacheEntries == 0 {
		sc.CacheEntries = 4096
	}
	if sc.Budget == 0 {
		sc.Budget = 80
	}
	if sc.Interval == 0 {
		sc.Interval = 25 * time.Millisecond
	}
	if sc.StreamLen == 0 {
		// Scale the stream with the load: the generator walks it in issue
		// order, and the TPC-H tenant sees roughly a third of the traffic —
		// a few submissions per stream position keeps the daemon's recent
		// window covering many distinct templates instead of degenerating
		// to one repeated query.
		sc.StreamLen = int(sc.Queries / 9)
		if sc.StreamLen < 2048 {
			sc.StreamLen = 2048
		}
	}
	return sc
}

// ServeResult is the experiment outcome, serialized to BENCH_serve.json.
// Load timings are wall-clock (this experiment measures the serving layer,
// not the simulated I/O model).
type ServeResult struct {
	Tenants   []string          `json:"tenants"`
	Requested int64             `json:"requested_queries"`
	Load      *serve.LoadStats  `json:"load"`
	Server    serve.ServerStats `json:"server"`
	// CacheHitRate is result-cache hits over completed queries;
	// BufferPoolHitRate aggregates the tenants' segment-store buffer pools.
	CacheHitRate      float64 `json:"cache_hit_rate"`
	BufferPoolHitRate float64 `json:"buffer_pool_hit_rate,omitempty"`
	// GenerationSwaps counts layout swaps installed while the load ran;
	// IdentityOK means every verified sample was byte-identical to direct
	// execution (and at least one sample was verified).
	GenerationSwaps int64 `json:"generation_swaps"`
	IdentityOK      bool  `json:"identity_ok"`
	// Trace is the TPC-H tenant's daemon cycle record.
	Trace []reorgd.CycleStats `json:"reorg_trace,omitempty"`
}

// ServeDeployment is a ready three-tenant server plus the per-tenant query
// pools a load generator should draw from (the TPC-H pool is the drift
// stream; walk it in order).
type ServeDeployment struct {
	Server  *serve.Server
	Streams map[string][]*workload.Query

	deployments []*Deployment
}

// Close releases the tenants' stores; shut the server down first.
func (d *ServeDeployment) Close() error {
	var errs []error
	for _, dep := range d.deployments {
		errs = append(errs, dep.Close())
	}
	return errors.Join(errs...)
}

// NewServeDeployment builds the three-tenant server: SSB and TPC-DS on
// MTO layouts over their full workloads, TPC-H trained on templates 1–11
// with a live reorg daemon while its traffic stream drifts into 12–22.
// The server is not started.
func NewServeDeployment(s Scale, sc ServeScenario) (_ *ServeDeployment, err error) {
	sc = sc.withDefaults()
	dep := &ServeDeployment{}
	defer func() {
		if err != nil {
			dep.Close()
		}
	}()

	ssb := SSBBench(s)
	dssb, err := DeployMethod(ssb, MethodMTO, false)
	if err != nil {
		return nil, err
	}
	dep.deployments = append(dep.deployments, dssb)
	shift, err := newShiftSetup(s)
	if err != nil {
		return nil, err
	}
	dep.deployments = append(dep.deployments, shift.deployment)
	tds := TPCDSBench(s)
	dtds, err := DeployMethod(tds, MethodMTO, false)
	if err != nil {
		return nil, err
	}
	dep.deployments = append(dep.deployments, dtds)

	// TPC-H clients may submit both trained and shifted templates; the
	// drift stream below moves the traffic mix from the former to the
	// latter over the course of the load.
	tpchTemplates := make([]*workload.Query, 0, shift.bench.Workload.Len()+shift.observed.Len())
	tpchTemplates = append(tpchTemplates, shift.bench.Workload.Queries...)
	tpchTemplates = append(tpchTemplates, shift.observed.Queries...)
	stream := workload.Drift(
		[][]*workload.Query{shift.bench.Workload.Queries, shift.observed.Queries, shift.observed.Queries},
		sc.StreamLen, sc.Seed+3)

	dep.Server, err = serve.New(serve.Config{
		Workers:      sc.Workers,
		Rate:         sc.Rate,
		Burst:        sc.Burst,
		CacheEntries: sc.CacheEntries,
		Tenants: []serve.TenantConfig{
			{
				Name: "ssb", Dataset: ssb.Dataset, Design: dssb.Design,
				Store: dssb.Store, Optimizer: dssb.Optimizer,
				Templates: ssb.Workload.Queries, Weight: 1,
			},
			{
				Name: "tpch", Dataset: shift.bench.Dataset, Design: shift.deployment.Design,
				Store: shift.deployment.Store, Optimizer: shift.opt,
				Templates: tpchTemplates, Weight: 2,
				// A small window keeps the planner focused on the most
				// recent traffic — a wide one dilutes the shifted
				// templates' reward with remembered pre-shift queries. TopK
				// spans every TPC-H table: under frequent wall-clock cycles
				// the staleness trend converges quickly, leaving tiny
				// dimension tables' constant missing-cut score to crowd out
				// the fact tables at a small TopK; the planner's reward
				// function rejects unprofitable tables anyway.
				Reorg: &reorgd.Config{
					Budget:          sc.Budget,
					Interval:        sc.Interval,
					Window:          64,
					MinCycleQueries: 32,
					TopK:            8,
					Seed:            sc.Seed,
					Q:               500,
					W:               100,
				},
			},
			{
				Name: "tpcds", Dataset: tds.Dataset, Design: dtds.Design,
				Store: dtds.Store, Optimizer: dtds.Optimizer,
				Templates: tds.Workload.Queries, Weight: 1,
			},
		},
	})
	if err != nil {
		return nil, err
	}
	dep.Streams = map[string][]*workload.Query{
		"ssb":   ssb.Workload.Queries,
		"tpch":  stream,
		"tpcds": tds.Workload.Queries,
	}
	return dep, nil
}

// Serve builds the three-tenant server, drives the load, and collects the
// result. The TPC-H tenant's daemon runs in the background on its wall-clock
// interval; if it has not installed a swap by the time a quarter of the load
// has completed, the harness additionally drives synchronous cycles (same
// Step path, same install wrapper) until one lands — guaranteeing the
// identity check covers at least one live generation swap under concurrent
// traffic.
func Serve(s Scale, sc ServeScenario) (*ServeResult, error) {
	sc = sc.withDefaults()
	dep, err := NewServeDeployment(s, sc)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	srv := dep.Server
	srv.Start()

	ctx := context.Background()
	type loadOut struct {
		ls  *serve.LoadStats
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		ls, lerr := serve.RunLoad(ctx, srv, serve.LoadConfig{
			Streams:      dep.Streams,
			Total:        sc.Queries,
			Concurrency:  sc.Concurrency,
			OpenRateQPS:  sc.OpenRateQPS,
			Seed:         sc.Seed,
			Ordered:      true,
			VerifyEveryN: sc.VerifyEveryN,
		})
		done <- loadOut{ls, lerr}
	}()

	// Mid-load swap guarantee: past the quarter mark the drift stream is
	// into the shifted templates; if the wall-clock daemon has not acted
	// yet, drive cycles synchronously until a swap lands (or the load
	// ends — the result then reports zero swaps and the caller fails).
	var out loadOut
	nudge := time.NewTicker(20 * time.Millisecond)
	defer nudge.Stop()
waitLoad:
	for {
		select {
		case out = <-done:
			break waitLoad
		case <-nudge.C:
			st := srv.Stats()
			if st.GenerationSwaps == 0 && st.Completed >= sc.Queries/4 {
				if _, serr := srv.StepTenant("tpch"); serr != nil {
					return nil, fmt.Errorf("serve: daemon step: %w", serr)
				}
			}
		}
	}
	if out.err != nil {
		return nil, out.err
	}

	shutCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return nil, fmt.Errorf("serve: shutdown: %w", err)
	}

	res := &ServeResult{
		Tenants:   srv.Tenants(),
		Requested: sc.Queries,
		Load:      out.ls,
		Server:    srv.Stats(),
		Trace:     srv.ReorgTrace("tpch"),
	}
	res.GenerationSwaps = res.Server.GenerationSwaps
	if res.Server.Completed > 0 {
		res.CacheHitRate = float64(res.Server.Cache.Hits) / float64(res.Server.Completed)
	}
	var bpHits, bpTotal int64
	for _, ts := range res.Server.Tenants {
		bpHits += ts.Store.CacheHits
		bpTotal += ts.Store.CacheHits + ts.Store.CacheMisses
	}
	if bpTotal > 0 {
		res.BufferPoolHitRate = float64(bpHits) / float64(bpTotal)
	}
	res.IdentityOK = out.ls.Verified > 0 && out.ls.Identical == out.ls.Verified && len(out.ls.Mismatches) == 0
	return res, nil
}

// String renders the experiment result for the CLI.
func (r *ServeResult) String() string {
	s := fmt.Sprintf("Multi-tenant serving — %d tenants, %d queries requested\n", len(r.Tenants), r.Requested)
	s += fmt.Sprintf("  served:       %d queries in %.1fs (%.0f qps, %d rejected, %d errors)\n",
		r.Load.Queries, r.Load.Seconds, r.Load.QPS, r.Load.Rejected, r.Load.Errors)
	s += fmt.Sprintf("  latency:      p50 %dµs  p90 %dµs  p99 %dµs  p99.9 %dµs  max %dµs\n",
		r.Load.Latency.P50, r.Load.Latency.P90, r.Load.Latency.P99, r.Load.Latency.P999, r.Load.Latency.Max)
	s += fmt.Sprintf("  result cache: %.1f%% hit rate (%d hits, %d misses, %d evicted)\n",
		100*r.CacheHitRate, r.Server.Cache.Hits, r.Server.Cache.Misses, r.Server.Cache.Evicted)
	if r.BufferPoolHitRate > 0 {
		s += fmt.Sprintf("  buffer pool:  %.1f%% hit rate\n", 100*r.BufferPoolHitRate)
	}
	s += fmt.Sprintf("  identity:     %d verified, %d identical, %d gen-skew skipped — ok=%v\n",
		r.Load.Verified, r.Load.Identical, r.Load.GenSkew, r.IdentityOK)
	s += fmt.Sprintf("  live reorg:   %d generation swaps during load\n", r.GenerationSwaps)
	for _, ts := range r.Server.Tenants {
		s += fmt.Sprintf("    %-6s gen=%d submitted=%d cache-hits=%d templates=%d\n",
			ts.Name, ts.Generation, ts.Submitted, ts.CacheHits, ts.Templates)
		if ts.DaemonErr != "" {
			s += fmt.Sprintf("    %-6s daemon error: %s\n", ts.Name, ts.DaemonErr)
		}
	}
	reorgs := 0
	for _, cs := range r.Trace {
		if cs.Action == "reorg" {
			reorgs++
		}
	}
	if reorgs > 0 {
		s += fmt.Sprintf("  daemon trace: %d cycles, %d reorg actions\n", len(r.Trace), reorgs)
	}
	return s
}
