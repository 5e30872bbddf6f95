package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/core"
	"mto/internal/datagen"
	"mto/internal/engine"
	"mto/internal/layout"
	"mto/internal/serve"
	"mto/internal/workload"
)

// runTraced is the traced ladder run. The harness records a span around
// each of its calls into a layer — the set-up phases, then from one client
// per query serve.submit followed by engine.execute of the same query on a
// harness-owned engine — and derives the per-layer metrics from those spans
// and from counters read at the same boundaries. Nothing here feeds an
// end-to-end number.
//
// On a reorg workload the ladder is preceded by the timed run's own loop
// (two clients, the daemon stepped beside them) with spans around the
// steps: a single client with a ladder completes a fifth of the queries, so
// the daemon's window would span five times as much of the shift and its
// decisions would describe another scenario. The ladder then runs on the
// layout the daemon left.
func runTraced(s spec, cfg runConfig, man *manifest, sc *scratch, outDir string) (*runResult, error) {
	tr := newTracer()
	dep, err := deploy(s, cfg, sc, tr)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	res := &runResult{Workload: s.name, Traced: true, Seed: cfg.seed}
	ms := newMetricSet(man.PerLayer)

	var twin *reference
	if s.twin {
		if twin, err = installTwin(dep, cfg); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		defer twin.close()
	}
	var shift *shiftReference
	if len(s.stepAt) > 0 {
		if shift, err = installShiftReference(dep); err != nil {
			return nil, fmt.Errorf("full re-optimization: %w", err)
		}
		defer shift.full.close()
	}

	steps := &stepLog{}
	var passLogs []*clientLog
	if len(s.stepAt) > 0 {
		// The scenario is the counted prefix; this pass needs nothing after it.
		pass := cfg
		pass.seconds = 0
		passLogs, steps, _ = runClients(dep, pass, tr)
		if steps.err != nil {
			return nil, fmt.Errorf("daemon step: %w", steps.err)
		}
		for _, log := range passLogs {
			res.Attempted += log.failed + len(log.samples)
			res.Failed += log.failed
		}
	}

	lad, err := runLadder(dep, cfg, tr, twin, res)
	if err != nil {
		return nil, err
	}
	st := dep.srv.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = dep.srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	res.Failed += int(st.Errors + st.RejectedRate + st.RejectedQueue)

	lad.serveMetrics(ms, st)
	if err := lad.engineMetrics(ms, dep, tr); err != nil {
		return nil, err
	}
	if err := lad.colstoreMetrics(ms, dep, tr, cfg.seed); err != nil {
		return nil, err
	}
	if err := offlineMetrics(ms, dep, tr, shift); err != nil {
		return nil, err
	}
	if err := reorgMetrics(ms, dep, steps, shift, passLogs, cfg.countedOf(s), res); err != nil {
		return nil, err
	}
	lad.processMetrics(ms)

	tr.finish()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+s.name+".jsonl")); err != nil {
		return nil, err
	}
	if res.Metrics, err = ms.done(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// reference is a second installed layout the traced run executes against
// directly: the fully resident twin of a static workload, or the full
// re-optimization a reorg workload's daemon is measured against.
type reference struct {
	store *colstore.Store
	eng   *engine.Engine
}

func (r *reference) close() { r.store.Close() }

func installReference(d *deployment, design *layout.Design, sub string) (*reference, error) {
	st, err := colstore.NewStore(filepath.Join(d.dir, sub), 1<<30, block.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	if _, err := design.Install(st, nil, 0); err != nil {
		st.Close()
		return nil, err
	}
	return &reference{store: st, eng: engine.New(st, design, d.tenants[0].ds, engine.DefaultOptions())}, nil
}

// installTwin installs tenant 0's layout a second time behind a pool large
// enough to hold it all, and runs the warm-up stream through it.
func installTwin(d *deployment, cfg runConfig) (*reference, error) {
	twin, err := installReference(d, d.tenants[0].design.Clone(), "twin")
	if err != nil {
		return nil, err
	}
	next := d.spec.stream(d, -1, 0)
	for i := 0; i < min(d.spec.warmup, cfg.countedOf(d.spec)); i++ {
		_, q := next(i, 0)
		if _, err := twin.eng.Execute(q); err != nil {
			twin.close()
			return nil, err
		}
	}
	return twin, nil
}

// shiftReference is what the daemon's result is measured against: blocks
// per query of a fixed workload over templates 12–22 on the stale layout and
// on a full re-optimization for that workload, both replayed at set-up.
type shiftReference struct {
	shifted        *workload.Workload
	full           *reference
	stale, fullBPQ float64
}

func installShiftReference(d *deployment) (*shiftReference, error) {
	td := d.tenants[0]
	r := &shiftReference{shifted: datagen.TPCHWorkloadTemplates(12, 22, 8, trainSeed+1)}
	opt, err := core.Optimize(td.ds, r.shifted, td.opt.Options())
	if err != nil {
		return nil, err
	}
	design, err := opt.BuildDesign()
	if err != nil {
		return nil, err
	}
	if r.full, err = installReference(d, design, "full"); err != nil {
		return nil, err
	}
	if r.fullBPQ, err = blocksPerQuery(r.full.eng, r.shifted.Queries); err == nil {
		r.stale, err = blocksPerQuery(d.engineFor(0), r.shifted.Queries)
	}
	if err != nil {
		r.full.close()
		return nil, err
	}
	return r, nil
}

// blocksPerQuery replays qs on eng and returns mean blocks read.
func blocksPerQuery(eng *engine.Engine, qs []*workload.Query) (float64, error) {
	wr, err := engine.RunWorkload(eng, qs, engine.RunOptions{Parallelism: 1})
	if err != nil {
		return 0, err
	}
	return ratio(float64(wr.Blocks), float64(len(qs))), nil
}

// ladder is what the single-client ladder loop recorded.
type ladder struct {
	queries                                     int
	submitNs, hitNs, missNs, overheadNs, execNs []int64
	shapeNs                                     map[string][]int64
	// store sums the backend counter deltas taken around serve.submit only,
	// so the ladder's own re-execution does not count as pool hits.
	store                                  block.Stats
	rows, afterRouting, afterZone, afterDi float64
	installedBlocks                        float64
	residentGapNs                          float64
	residentN                              int
	tenant0Queries                         []*workload.Query
	first                                  *served
	wall                                   time.Duration
	spans                                  int
	cpuS                                   float64
	mem0, mem1                             runtime.MemStats
}

func runLadder(d *deployment, cfg runConfig, tr *tracer, twin *reference, res *runResult) (*ladder, error) {
	s := d.spec
	l := &ladder{shapeNs: map[string][]int64{}}
	engines := make([]*engine.Engine, len(d.tenants))
	for t := range engines {
		engines[t] = d.engineFor(t)
	}
	// One client with a ladder is several times slower than the timed run's
	// two, so it walks the scenario in a quarter of the counted prefix, and
	// like a timed client goes on until cfg.seconds have passed.
	n := max(1, cfg.countedOf(s)/4)
	atLeast := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	spans0 := len(tr.spans)
	runtime.ReadMemStats(&l.mem0)
	cpu0 := cpuSeconds()
	next := s.stream(d, cfg.seed, 0)
	for i := 0; i < n || time.Since(begin) < atLeast; i++ {
		t, q := next(i, float64(i)/float64(n))
		td := d.tenants[t]
		res.Attempted++
		root := tr.begin("bench.query", 0, i+1)

		before := td.store.Stats()
		id := tr.begin("serve.submit", root, i+1)
		resp, err := d.srv.Submit(context.Background(), td.spec.name, q)
		sub := tr.end(id).Nanoseconds()
		if err != nil {
			tr.end(root)
			res.Failed++
			res.note("submit %s: %v", q.ID, err)
			continue
		}
		l.store = addStats(l.store, td.store.Stats().Sub(before))

		id = tr.begin("engine.execute", root, i+1)
		direct, err := engines[t].Execute(q)
		ex := tr.end(id).Nanoseconds()
		if err != nil {
			tr.end(root)
			res.Failed++
			res.note("execute %s: %v", q.ID, err)
			continue
		}
		if twin != nil {
			id = tr.begin("engine.execute_resident", root, i+1)
			_, err = twin.eng.Execute(q)
			l.residentGapNs += float64(ex - tr.end(id).Nanoseconds())
			l.residentN++
			if err != nil {
				return nil, fmt.Errorf("twin execute %s: %w", q.ID, err)
			}
		}
		tr.end(root)

		// Served and direct ran back to back at one generation (no daemon
		// cycle runs during the ladder), so they must agree exactly.
		if !reflect.DeepEqual(direct, resp.Result) {
			res.Failed++
			res.note("ladder mismatch on %s: served %+v, direct %+v", q.ID, resp.Result, direct)
		}
		l.submitNs = append(l.submitNs, sub)
		l.execNs = append(l.execNs, ex)
		l.shapeNs[shapeOf(q)] = append(l.shapeNs[shapeOf(q)], ex)
		if resp.Cached {
			l.hitNs = append(l.hitNs, sub)
		} else {
			l.missNs = append(l.missNs, sub)
			l.overheadNs = append(l.overheadNs, sub-ex)
		}
		l.installedBlocks += float64(td.installedFor(resp.Result))
		for _, ta := range resp.Result.PerTable {
			l.rows += float64(ta.RowsScanned)
			l.afterRouting += float64(ta.AfterRouting)
			l.afterZone += float64(ta.AfterZoneMap)
			l.afterDi += float64(ta.AfterDiPs)
		}
		if t == 0 {
			l.tenant0Queries = append(l.tenant0Queries, q)
		}
		if l.first == nil {
			l.first = &served{tenant: t, q: q, resp: resp}
		}
	}
	l.wall = time.Since(begin)
	l.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&l.mem1)
	l.spans = len(tr.spans) - spans0
	l.queries = len(l.submitNs)
	if l.queries == 0 {
		return nil, fmt.Errorf("%s: the ladder completed no query", s.name)
	}
	return l, nil
}

// addStats returns a + b; block.Stats only offers Sub, and a − (0 − b)
// keeps this file independent of its field list.
func addStats(a, b block.Stats) block.Stats {
	return a.Sub(block.Stats{}.Sub(b))
}

func p50(ns []int64) float64 { return float64(percentile(sortedCopy(ns), 50)) }

func (l *ladder) serveMetrics(ms *metricSet, st serve.ServerStats) {
	ms.set("serve.result_cache_hit_frac", ratio(float64(len(l.hitNs)), float64(l.queries)), l.queries)
	ms.set("serve.hit_path_p50_us", p50(l.hitNs)*usPerNs, len(l.hitNs))
	ms.set("serve.miss_p50_ms", p50(l.missNs)*msPerNs, len(l.missNs))
	ms.set("serve.miss_overhead_p50_us", p50(l.overheadNs)*usPerNs, len(l.overheadNs))
	ms.set("serve.rejected", float64(st.RejectedRate+st.RejectedQueue), l.queries)
	ms.set("serve.errors", float64(st.Errors), l.queries)
	ms.set("serve.swaps", float64(st.GenerationSwaps), 1)

	// The public cache and key functions, on the run's first query.
	const ops = 20_000
	cache := serve.NewResultCache(4096)
	q, result := l.first.q, l.first.resp.Result
	norm := q.Normalize()
	ms.set("serve.cache_put_ns", timeOp(ops, func() { cache.Put("t", 0, norm, result) }), ops)
	ms.set("serve.cache_get_ns", timeOp(ops, func() { cache.Get("t", 0, norm, q) }), ops)
	ms.set("serve.normalize_ns", timeOp(ops, func() { q.Normalize() }), ops)
}

// timeOp returns the mean nanoseconds of f over n calls.
func timeOp(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func (l *ladder) engineMetrics(ms *metricSet, d *deployment, tr *tracer) error {
	sorted := sortedCopy(l.execNs)
	ms.set("engine.execute_p50_ms", float64(percentile(sorted, 50))*msPerNs, l.queries)
	ms.set("engine.execute_p99_ms", float64(percentile(sorted, 99))*msPerNs, l.queries)
	for _, shape := range []string{"scan_only", "join", "groupby"} {
		ms.set("engine."+shape+"_p50_ms", p50(l.shapeNs[shape])*msPerNs, len(l.shapeNs[shape]))
	}
	ms.set("engine.rows_scanned_per_query", l.rows/float64(l.queries), l.queries)
	ms.set("engine.after_routing_frac", ratio(l.afterRouting, l.installedBlocks), l.queries)
	ms.set("engine.after_zonemap_frac", ratio(l.afterZone, l.installedBlocks), l.queries)
	ms.set("engine.after_dips_frac", ratio(l.afterDi, l.installedBlocks), l.queries)

	// The replay ROADMAP item 1 questions: the same queries through
	// RunWorkload with one worker, then two.
	qs := l.tenant0Queries[:min(len(l.tenant0Queries), 220)]
	eng := d.engineFor(0)
	var wall [2]float64
	for i := range wall {
		id := tr.begin("engine.run_workload", 0, 0)
		if _, err := engine.RunWorkload(eng, qs, engine.RunOptions{Parallelism: i + 1}); err != nil {
			return fmt.Errorf("parallel replay: %w", err)
		}
		wall[i] = tr.end(id).Seconds()
	}
	ms.set("engine.parallel_speedup", ratio(wall[0], wall[1]), len(qs))
	return nil
}

func (l *ladder) colstoreMetrics(ms *metricSet, d *deployment, tr *tracer, seed int64) error {
	st, nq := l.store, float64(l.queries)
	lookups := st.CacheHits + st.CacheMisses
	ms.set("colstore.pool_hit_frac", ratio(float64(st.CacheHits), float64(lookups)), int(lookups))
	ms.set("colstore.bytes_read_per_query", float64(st.BytesRead)/nq, l.queries)
	ms.set("colstore.evictions_per_query", float64(st.CacheEvictions)/nq, l.queries)
	ms.set("colstore.readahead_useful_frac", ratio(float64(st.ReadaheadHits), float64(st.Prefetched)), int(st.Prefetched))
	ms.set("colstore.grouped_folds_declined", float64(st.GroupedFoldsDeclined), l.queries)
	ms.set("colstore.io_decode_ms_per_query", ratio(l.residentGapNs, float64(l.residentN))*msPerNs, l.residentN)
	sweep, err := readBlockSweep(d.tenants[0].store, tr, seed)
	if err != nil {
		return err
	}
	ms.set("colstore.read_block_p50_us", p50(sweep)*usPerNs, len(sweep))
	segBytes, err := d.segmentBytes()
	if err != nil {
		return err
	}
	ms.set("colstore.segment_bytes", float64(segBytes), 1)
	return nil
}

// readBlockSweep reads a seeded sequence of 500 blocks through
// Backend.ReadBlock, twice, and returns the second pass's latencies: the
// first pass faults in what the pool can hold in decoded form (queries keep
// blocks in encoded form), so the second shows pool hits where the pool is
// larger than the data and misses where it is not.
func readBlockSweep(st *colstore.Store, tr *tracer, seed int64) ([]int64, error) {
	type ref struct {
		table string
		id    int
	}
	var all []ref
	for _, t := range st.Tables() {
		for id := 0; id < st.NumBlocks(t); id++ {
			all = append(all, ref{t, id})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("read-block sweep: store has no blocks")
	}
	rng := rand.New(rand.NewSource(seed))
	picks := make([]ref, 500)
	for i := range picks {
		picks[i] = all[rng.Intn(len(all))]
	}
	var out []int64
	root := tr.begin("bench.read_block_sweep", 0, 0)
	for pass := 0; pass < 2; pass++ {
		out = out[:0]
		for _, p := range picks {
			id := tr.begin("colstore.read_block", root, 0)
			_, err := st.ReadBlock(p.table, p.id)
			out = append(out, tr.end(id).Nanoseconds())
			if err != nil {
				return nil, fmt.Errorf("read-block sweep: %w", err)
			}
		}
	}
	tr.end(root)
	return out, nil
}

// offlineMetrics reports the set-up phases and one direct PlanReorg:
// against the shifted templates where the traffic shifts, against the
// tenant's own training workload where it does not.
func offlineMetrics(ms *metricSet, d *deployment, tr *tracer, shift *shiftReference) error {
	n := len(d.tenants)
	ms.set("datagen.generate_s", d.times.generate, n)
	ms.set("core.optimize_s", d.times.optimize, n)
	ms.set("core.routing_s", d.times.routing, n)
	ms.set("core.build_design_s", d.times.buildDesign, n)
	ms.set("layout.install_s", d.times.install, n)
	td := d.tenants[0]
	observed := td.train
	if shift != nil {
		observed = shift.shifted
	}
	id := tr.begin("core.plan_reorg", 0, 0)
	_, err := td.opt.Clone().PlanReorg(observed, core.ReorgConfig{Q: 500, W: 100}, td.design)
	ms.set("core.plan_reorg_ms", float64(tr.end(id).Nanoseconds())*msPerNs, observed.Len())
	if err != nil {
		return fmt.Errorf("plan reorg: %w", err)
	}
	return nil
}

// reorgMetrics reports what the daemon did during the reorg pass (all zero
// on a workload without one), what the pass's tail read, and how much of the
// stale-to-full gap the layout the daemon left recovers.
func reorgMetrics(ms *metricSet, d *deployment, steps *stepLog, shift *shiftReference, passLogs []*clientLog, counted int, res *runResult) error {
	pass, tail := countedReads(passLogs, counted)
	var cycles, reorgs, written, moved int
	for _, cs := range d.srv.ReorgTrace(d.tenants[0].spec.name) {
		cycles++
		if cs.Action == "reorg" {
			reorgs++
			written += cs.BlocksWritten
			moved += cs.RowsMoved
		}
	}
	ms.set("reorgd.cycles", float64(cycles), cycles)
	ms.set("reorgd.reorg_actions", float64(reorgs), cycles)
	ms.set("reorgd.blocks_written", float64(written), reorgs)
	ms.set("reorgd.rows_moved", float64(moved), reorgs)
	ms.set("reorgd.blocks_written_per_query", ratio(float64(written), float64(pass.n)), pass.n)
	ms.set("reorgd.tail_blocks_read_frac", tail.frac(), tail.n)
	ms.set("reorgd.step_reorg_p50_ms", p50(steps.reorgNs)*msPerNs, len(steps.reorgNs))
	ms.set("reorgd.step_max_ms", float64(steps.maxNs)*msPerNs, cycles)
	if shift == nil {
		ms.set("reorgd.recovery_frac", 0, 0)
		return nil
	}
	if reorgs == 0 {
		res.note("no generation swap installed")
	}
	final, err := blocksPerQuery(d.engineFor(0), shift.shifted.Queries)
	if err != nil {
		return err
	}
	ms.set("reorgd.recovery_frac", ratio(shift.stale-final, shift.stale-shift.fullBPQ), shift.shifted.Len())
	return nil
}

func (l *ladder) processMetrics(ms *metricSet) {
	nq := float64(l.queries)
	ms.set("process.peak_rss_mb", peakRSSMB(), 1)
	ms.set("process.cpu_s_per_query", l.cpuS/nq, l.queries)
	ms.set("process.alloc_mb_per_query", float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc)/(1<<20)/nq, l.queries)
	ms.set("process.gc_pause_ms", float64(l.mem1.PauseTotalNs-l.mem0.PauseTotalNs)*msPerNs, int(l.mem1.NumGC-l.mem0.NumGC))
	ms.set("bench.trace_overhead_frac", float64(l.spans)*spanCostNs()/float64(l.wall.Nanoseconds()), l.spans)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
