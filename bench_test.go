package mto

// One benchmark per table and figure of the paper's evaluation (§6). Each
// bench drives the corresponding harness in internal/experiments at a small
// scale and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates every result. The mtobench CLI
// runs the same harnesses at larger scales with full printed tables.

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"mto/internal/bitmap"
	"mto/internal/engine"
	"mto/internal/experiments"
	"mto/internal/workload"
)

// benchScale keeps each iteration around a second.
func benchScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.SF = 0.005
	s.PerTemplate = 2
	return s
}

func BenchmarkFig10aSSB(b *testing.B)   { benchFig10a(b, "ssb") }
func BenchmarkFig10aTPCH(b *testing.B)  { benchFig10a(b, "tpch") }
func BenchmarkFig10aTPCDS(b *testing.B) { benchFig10a(b, "tpcds") }

func benchFig10a(b *testing.B, bench string) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bb, err := experiments.BenchByName(bench, s)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.Fig10a([]*experiments.Bench{bb})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == experiments.MethodMTO {
				b.ReportMetric(r.Normalized, "mto-norm-blocks")
			}
		}
	}
}

func BenchmarkFig10bcSSB(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10bc([]*experiments.Bench{experiments.SSBBench(s)})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == experiments.MethodMTO {
				b.ReportMetric(r.NormFraction, "mto-norm-fraction")
				b.ReportMetric(r.NormSeconds, "mto-norm-runtime")
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.AllBenches(s))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Bench == "TPC-H" {
				b.ReportMetric(float64(r.JoinInducedCuts), "tpch-induced-cuts")
				b.ReportMetric(float64(r.MaxInductionDepth), "tpch-max-depth")
			}
		}
	}
}

func BenchmarkFig11SSB(b *testing.B) {
	s := benchScale()
	s.SF = 0.02
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(experiments.SSBBench(s))
		if err != nil {
			b.Fatal(err)
		}
		improved := 0
		for _, r := range rows {
			if r.Versus == experiments.MethodBaseline && r.Reduction > 0 {
				improved++
			}
		}
		b.ReportMetric(float64(improved)/13, "frac-queries-improved")
	}
}

func BenchmarkFig12(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(experiments.TPCHBench(s))
		if err != nil {
			b.Fatal(err)
		}
		var mtoQ5, baseQ5 float64
		for _, r := range rows {
			if r.Template == "q5" {
				switch r.Method {
				case experiments.MethodMTO:
					mtoQ5 = r.Blocks
				case experiments.MethodBaseline:
					baseQ5 = r.Blocks
				}
			}
		}
		if baseQ5 > 0 {
			b.ReportMetric(mtoQ5/baseQ5, "q5-mto-vs-baseline")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3([]*experiments.Bench{experiments.TPCHBench(s)})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == experiments.MethodMTO {
				b.ReportMetric(r.OptimizeSeconds, "mto-optimize-sec")
			}
		}
	}
}

func BenchmarkFig13a(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13a(experiments.TPCHBench(s), []float64{1, 0.25})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "MTO+CA" && r.SampleRate == 0.25 {
				b.ReportMetric(math.Abs(r.EstimatedBlocks-float64(r.MeasuredBlocks))/float64(r.MeasuredBlocks),
					"ca-estimate-error")
			}
		}
	}
}

func BenchmarkFig13b(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13b(experiments.TPCHBench(s), []float64{0.25})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == experiments.MethodMTO {
				b.ReportMetric(r.TotalSeconds, "mto-total-sec")
			}
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4([]*experiments.Bench{experiments.SSBBench(s)})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Versus == experiments.MethodBaseline && r.QueriesToCross > 0 {
				b.ReportMetric(float64(r.QueriesToCross), "queries-to-cross-baseline")
			}
		}
	}
}

func BenchmarkFig14a(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14a(s)
		if err != nil {
			b.Fatal(err)
		}
		var partial, noReorg float64
		for _, r := range rows {
			switch r.Scenario {
			case "MTO no reorg":
				noReorg = r.AvgQuerySeconds
			case "MTO partial reorg (q=500)":
				partial = r.AvgQuerySeconds
			}
		}
		if noReorg > 0 {
			b.ReportMetric(partial/noReorg, "partial-reorg-speedup")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(s, []float64{200, math.Inf(1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FracDataReorganized, "q200-frac-reorganized")
		b.ReportMetric(rows[0].FracSubtreesConsidered, "q200-frac-subtrees")
	}
}

func BenchmarkFig14b(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14b(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scenario == "MTO after insert" {
				b.ReportMetric(r.CutUpdateSeconds, "cut-update-sec")
			}
		}
	}
}

func BenchmarkFig15a(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15a(s, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == experiments.MethodMTO && r.PerTemplate == 4 {
				b.ReportMetric(r.VsBaselineNorm, "mto-norm-at-88q")
			}
		}
	}
}

func BenchmarkFig15b(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15b(s, []float64{0.005, 0.02})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == experiments.MethodMTO && r.SF == 0.02 {
				b.ReportMetric(r.VsBaselineNorm, "mto-norm-at-4x-data")
			}
		}
	}
}

// BenchmarkWorkloadReplay measures full-workload replay wall-clock on an
// already-deployed SSB layout at several parallelism levels, through the
// experiments harness (which builds a fresh engine — and hence cold
// dictionary/index caches — per replay). All parallelism levels must
// produce identical metrics. Since the vectorized kernels cut per-query
// cost by an order of magnitude, the serial cold-cache build dominates
// this harness-level number; BenchmarkExecuteWorkload isolates the
// execution paths themselves on a warm engine.
func BenchmarkWorkloadReplay(b *testing.B) {
	s := benchScale()
	s.SF = 0.02
	bench := experiments.SSBBench(s)
	d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			bench.Parallel = par
			for i := 0; i < b.N; i++ {
				res, err := experiments.Replay(bench, d, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Blocks), "workload-blocks")
			}
		})
	}
}

// BenchmarkExecuteWorkload measures per-query execution itself — the inner
// loop that parallel replay multiplies — by replaying the SSB workload
// sequentially on an already-deployed layout through each execution path:
// the vectorized kernels behind Execute (bit-mask filters, dictionary-coded
// join keys, batch zone pruning) versus the retained scalar reference
// (per-row closures, boxed key sets rebuilt every reduction pass). The two
// produce byte-identical Results; only the wall-clock differs.
func BenchmarkExecuteWorkload(b *testing.B) {
	s := benchScale()
	s.SF = 0.02
	bench := experiments.SSBBench(s)
	d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(d.Store, d.Design, bench.Dataset, engine.CloudDWOptions())
	for _, mode := range []struct {
		name string
		ref  bool
	}{
		{"kernel", false},
		{"reference", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wr, err := engine.RunWorkload(eng, bench.Workload.Queries,
					engine.RunOptions{Parallelism: 1, Reference: mode.ref})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(wr.Blocks), "workload-blocks")
			}
		})
	}
}

// BenchmarkExecuteTemplate measures Execute per TPC-H template on a warm
// engine over an already-deployed SF 0.02 layout: sub-benchmark qNN cycles
// through that template's eight instances, so ns/op is one query of the
// template and per-template speedups compare directly across commits.
func BenchmarkExecuteTemplate(b *testing.B) {
	s := benchScale()
	s.SF = 0.02
	s.PerTemplate = 8
	bench := experiments.TPCHBench(s)
	d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(d.Store, d.Design, bench.Dataset, engine.CloudDWOptions())
	byTemplate := map[string][]*workload.Query{}
	var names []string
	for _, q := range bench.Workload.Queries {
		t, _, _ := strings.Cut(q.ID, "#")
		name := fmt.Sprintf("q%02s", strings.TrimPrefix(t, "q"))
		if byTemplate[name] == nil {
			names = append(names, name)
		}
		byTemplate[name] = append(byTemplate[name], q)
	}
	for _, name := range names {
		qs := byTemplate[name]
		b.Run(name, func(b *testing.B) {
			for _, q := range qs { // warm the engine's dictionary caches
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstQueryTPCH measures what a fresh engine pays before its
// caches are warm — after every reorganization swap, insert or restart —
// engine-only: one op runs each of the 22 TPC-H templates' first instance
// once, each on a new engine.New over the same deployed MTO layout (SF
// 0.02, DefaultOptions), so ns/op is the sum of the 22 first queries.
func BenchmarkFirstQueryTPCH(b *testing.B) {
	s := benchScale()
	s.SF = 0.02
	s.PerTemplate = 1
	bench := experiments.TPCHBench(s)
	d, err := experiments.DeployMethod(bench, experiments.MethodMTO, true)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		for _, q := range bench.Workload.Queries {
			if _, err := engine.New(d.Store, d.Design, bench.Dataset, engine.DefaultOptions()).Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // the store's pool and row orders are warm; only the engine is new
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkReplayDisk measures full-workload replay against the persistent
// columnar segment store in its interesting regimes — cold (0-byte buffer
// pool, every block read comes from disk) and warm (pool large enough to
// hold the working set after a priming replay) — next to
// the held-in-memory segments the other benchmarks use. All configurations
// produce byte-identical Results; only the wall-clock differs, and the
// warm-cache run is expected to stay within ~2× of mem.
func BenchmarkReplayDisk(b *testing.B) {
	s := benchScale()
	s.SF = 0.02
	for _, cfg := range []struct {
		name    string
		store   string
		cacheMB int
		prime   bool
	}{
		{name: "mem", store: "mem"},
		{name: "disk-cold", store: "disk", cacheMB: 0},
		{name: "disk-warm", store: "disk", cacheMB: 256, prime: true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			bench := experiments.SSBBench(s)
			bench.Store = cfg.store
			bench.CacheMB = cfg.cacheMB
			if cfg.store == "disk" {
				bench.DataDir = b.TempDir()
			}
			d, err := experiments.DeployMethod(bench, experiments.MethodBaseline, true)
			if err != nil {
				b.Fatal(err)
			}
			if c, ok := d.Store.(io.Closer); ok {
				defer c.Close()
			}
			if cfg.prime {
				if _, err := experiments.Replay(bench, d, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Replay(bench, d, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Blocks), "workload-blocks")
			}
		})
	}
}

// BenchmarkAblationRoaringVsSlice isolates the literal-cut representation
// choice (§4.1.2): membership probes against a roaring bitmap vs a plain
// sorted slice, at join-key cardinalities typical of induced cuts.
func BenchmarkAblationRoaringVsSlice(b *testing.B) {
	const n = 200000
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(i * 3)
	}
	bm := bitmap.FromSlice(keys)
	bm.Optimize()
	b.Run("roaring", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if bm.Contains(uint32(i % (3 * n))) {
				hits++
			}
		}
		_ = hits
		b.ReportMetric(float64(bm.SizeBytes()), "bytes")
	})
	b.Run("sorted-slice", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			v := uint32(i % (3 * n))
			lo, hi := 0, len(keys)
			for lo < hi {
				mid := (lo + hi) / 2
				if keys[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(keys) && keys[lo] == v {
				hits++
			}
		}
		_ = hits
		b.ReportMetric(float64(4*len(keys)), "bytes")
	})
}

// BenchmarkAblationUniqueRestriction measures the §4.1.1 policy's effect.
func BenchmarkAblationUniqueRestriction(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(experiments.SSBBench(s))
		if err != nil {
			b.Fatal(err)
		}
		var def, ablated float64
		for _, r := range rows {
			switch r.Variant {
			case "MTO (default)":
				def = float64(r.Blocks)
			case "no unique-source restriction":
				ablated = float64(r.Blocks)
			}
		}
		if def > 0 {
			b.ReportMetric(ablated/def, "ablated-vs-default-blocks")
		}
	}
}

// BenchmarkAblationReorgPruning measures §5.1.3's pruning payoff.
func BenchmarkAblationReorgPruning(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ReorgPruningAblation(s)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].FracSubtreesConsidered > 0 {
			b.ReportMetric(rows[0].FracSubtreesConsidered/rows[1].FracSubtreesConsidered,
				"pruned-vs-exhaustive-subtrees")
		}
	}
}
