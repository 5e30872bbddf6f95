// Command mtobench regenerates the tables and figures of "Instance-
// Optimized Data Layouts for Cloud Analytics Workloads" (SIGMOD 2021) at
// laptop scale. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured outcomes.
//
// Usage:
//
//	mtobench -exp fig10a [-sf 0.02] [-per-template 8] [-seed 1] [-parallel N]
//	mtobench -exp reorg -daemon [-reorg-budget 80] [-benchjson BENCH_reorg.json]
//	mtobench -exp serve [-serve-queries 1000000] [-serve-benchjson BENCH_serve.json]
//	mtobench -exp all
//
// Experiments: fig10a fig10bc fig11 fig12 fig13a fig13b fig14a fig14b
// fig15a fig15b table2 table3 table4 table5 ablations reorg serve all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"mto/internal/experiments"
)

// csvDir, when set, receives one <experiment>.csv per harness run.
var csvDir string

// reorgFlags holds the -exp reorg daemon knobs (see internal/reorgd).
var reorgFlags struct {
	daemon    bool
	budget    int
	cycles    int
	queries   int
	epsilon   float64
	interval  time.Duration
	benchJSON string
}

// serveFlags holds the -exp serve knobs (see internal/serve).
var serveFlags struct {
	queries     int64
	concurrency int
	workers     int
	rateQPS     float64
	verifyEvery int64
	interval    time.Duration
	budget      int
	cacheSize   int
	benchJSON   string
}

// saveCSV writes rows for one experiment when -csv is set.
func saveCSV(name string, rows interface{}) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteRowsCSV(f, rows)
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (fig10a, table2, ..., all)")
		sf          = flag.Float64("sf", 0.02, "scale factor for the generated datasets")
		perTemplate = flag.Int("per-template", 8, "TPC-H queries per template")
		seed        = flag.Int64("seed", 1, "random seed")
		bench       = flag.String("bench", "", "restrict to one bench (ssb, tpch, tpcds) where applicable")
		parallel    = flag.Int("parallel", 0, "worker budget for workload replay AND the offline build/routing phases (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		store       = flag.String("store", "mem", `where the columnar segments live: "mem" (held in memory) or "disk" (segment files; identical results)`)
		datadir     = flag.String("datadir", "", `segment directory for -store=disk (default: a temp dir removed on exit)`)
		cacheMB     = flag.Int("cache-mb", 64, "buffer-pool capacity for -store=disk in MiB of cached block data (0 = no cache)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	flag.StringVar(&csvDir, "csv", "", "also write each experiment's rows as CSV into this directory")
	flag.BoolVar(&reorgFlags.daemon, "daemon", false, "enable the incremental reorganization daemon in -exp reorg (off = stale-vs-full baseline only)")
	flag.IntVar(&reorgFlags.budget, "reorg-budget", 80, "per-cycle block-write budget for the reorg daemon (0 = unlimited)")
	flag.IntVar(&reorgFlags.cycles, "reorg-cycles", 8, "number of daemon cycles in -exp reorg")
	flag.IntVar(&reorgFlags.queries, "reorg-queries", 22, "drift-stream queries executed per daemon cycle")
	flag.Float64Var(&reorgFlags.epsilon, "reorg-epsilon", 0, "bandit exploration rate (0 = UCB1, >0 = seeded epsilon-greedy)")
	flag.DurationVar(&reorgFlags.interval, "reorg-interval", time.Second, "cycle interval for a live daemon Run (the bench drives cycles explicitly)")
	flag.StringVar(&reorgFlags.benchJSON, "benchjson", "", "write the -exp reorg result as JSON to this file (e.g. BENCH_reorg.json)")
	flag.Int64Var(&serveFlags.queries, "serve-queries", 1_000_000, "total submissions in -exp serve")
	flag.IntVar(&serveFlags.concurrency, "serve-concurrency", 8, "load-generator client count in -exp serve")
	flag.IntVar(&serveFlags.workers, "serve-workers", 8, "server worker-pool size in -exp serve")
	flag.Float64Var(&serveFlags.rateQPS, "serve-rate", 0, "open-loop target QPS in -exp serve (0 = closed loop, full speed)")
	flag.Int64Var(&serveFlags.verifyEvery, "serve-verify-every", 1000, "verify every Nth served query against direct execution in -exp serve (0 = off)")
	flag.DurationVar(&serveFlags.interval, "serve-reorg-interval", 25*time.Millisecond, "TPC-H tenant's background daemon cycle period in -exp serve")
	flag.IntVar(&serveFlags.budget, "serve-reorg-budget", 80, "per-cycle block-write budget for the live daemon in -exp serve")
	flag.IntVar(&serveFlags.cacheSize, "serve-cache-entries", 4096, "result-cache capacity in -exp serve (negative disables)")
	flag.StringVar(&serveFlags.benchJSON, "serve-benchjson", "", "write the -exp serve result as JSON to this file (e.g. BENCH_serve.json)")
	flag.Parse()

	scale := experiments.DefaultScale()
	scale.SF = *sf
	scale.PerTemplate = *perTemplate
	scale.Seed = *seed
	scale.Parallel = *parallel
	scale.Store = *store
	scale.CacheMB = *cacheMB
	if *store == "disk" {
		scale.DataDir = *datadir
		if scale.DataDir == "" {
			dir, err := os.MkdirTemp("", "mtobench-segments-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "mtobench:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
			scale.DataDir = dir
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtobench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mtobench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := runExperiment(*exp, *bench, scale)
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "mtobench:", merr)
			os.Exit(1)
		}
		runtime.GC()
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "mtobench:", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		if *cpuprofile != "" {
			pprof.StopCPUProfile() // flush before the hard exit below
		}
		fmt.Fprintln(os.Stderr, "mtobench:", err)
		os.Exit(1)
	}
}

// printTimings prints the Timings breakdown (Table 3's OptimizeSeconds /
// RoutingSeconds split) for every optimizer deployed by an experiment.
func printTimings(out io.Writer) {
	timings := experiments.DrainTimings()
	if len(timings) == 0 {
		return
	}
	fmt.Fprintln(out, "offline timings:")
	for _, t := range timings {
		fmt.Fprintf(out, "  %-8s %-8s optimize %8.3fs   routing %8.3fs\n",
			t.Bench, t.Method, t.OptimizeSeconds, t.RoutingSeconds)
	}
	fmt.Fprintln(out)
}

func benchesFor(name string, s experiments.Scale) ([]*experiments.Bench, error) {
	if name == "" {
		return experiments.AllBenches(s), nil
	}
	b, err := experiments.BenchByName(name, s)
	if err != nil {
		return nil, err
	}
	return []*experiments.Bench{b}, nil
}

func runExperiment(exp, bench string, s experiments.Scale) error {
	out := os.Stdout
	switch exp {
	case "all":
		for _, e := range []string{
			"fig10a", "fig10bc", "table2", "fig11", "fig12", "table3",
			"fig13a", "fig13b", "table4", "fig14a", "table5", "fig14b",
			"fig15a", "fig15b", "ablations",
		} {
			if err := runExperiment(e, bench, s); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	case "fig10a":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig10a(benches)
		if err != nil {
			return err
		}
		experiments.PrintFig10a(out, rows)
		if err := saveCSV("fig10a", rows); err != nil {
			return err
		}
	case "fig10bc":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig10bc(benches)
		if err != nil {
			return err
		}
		experiments.PrintFig10bc(out, rows)
		if err := saveCSV("fig10bc", rows); err != nil {
			return err
		}
	case "table2":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		rows, err := experiments.Table2(benches)
		if err != nil {
			return err
		}
		experiments.PrintTable2(out, rows)
		if err := saveCSV("table2", rows); err != nil {
			return err
		}
	case "fig11":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		for _, b := range benches {
			rows, err := experiments.Fig11(b)
			if err != nil {
				return err
			}
			experiments.PrintFig11(out, rows)
			if err := saveCSV("fig11-"+b.Name, rows); err != nil {
				return err
			}
		}
	case "fig12":
		b, err := experiments.BenchByName("tpch", s)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig12(b)
		if err != nil {
			return err
		}
		experiments.PrintFig12(out, rows)
		if err := saveCSV("fig12", rows); err != nil {
			return err
		}
	case "table3":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		rows, err := experiments.Table3(benches)
		if err != nil {
			return err
		}
		experiments.PrintTable3(out, rows)
		if err := saveCSV("table3", rows); err != nil {
			return err
		}
	case "fig13a":
		b, err := experiments.BenchByName("tpch", s)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig13a(b, []float64{1, 0.5, 0.25, 0.1, 0.05})
		if err != nil {
			return err
		}
		experiments.PrintFig13a(out, rows)
		if err := saveCSV("fig13a", rows); err != nil {
			return err
		}
	case "fig13b":
		b, err := experiments.BenchByName("tpch", s)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig13b(b, []float64{1, 0.5, 0.25, 0.1, 0.05})
		if err != nil {
			return err
		}
		experiments.PrintFig13b(out, rows)
		if err := saveCSV("fig13b", rows); err != nil {
			return err
		}
	case "table4":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		rows, err := experiments.Table4(benches)
		if err != nil {
			return err
		}
		experiments.PrintTable4(out, rows)
		if err := saveCSV("table4", rows); err != nil {
			return err
		}
	case "fig14a":
		rows, err := experiments.Fig14a(s)
		if err != nil {
			return err
		}
		experiments.PrintFig14a(out, rows)
		if err := saveCSV("fig14a", rows); err != nil {
			return err
		}
	case "table5":
		rows, err := experiments.Table5(s, []float64{100, 200, 500, 1000, math.Inf(1)})
		if err != nil {
			return err
		}
		experiments.PrintTable5(out, rows)
		if err := saveCSV("table5", rows); err != nil {
			return err
		}
	case "fig14b":
		rows, err := experiments.Fig14b(s)
		if err != nil {
			return err
		}
		experiments.PrintFig14b(out, rows)
		if err := saveCSV("fig14b", rows); err != nil {
			return err
		}
	case "fig15a":
		rows, err := experiments.Fig15a(s, []int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		experiments.PrintFig15a(out, rows)
		if err := saveCSV("fig15a", rows); err != nil {
			return err
		}
	case "fig15b":
		rows, err := experiments.Fig15b(s, []float64{0.005, 0.01, 0.02, 0.05})
		if err != nil {
			return err
		}
		experiments.PrintFig15b(out, rows)
		if err := saveCSV("fig15b", rows); err != nil {
			return err
		}
	case "reorg":
		res, err := experiments.ReorgDaemon(s, experiments.ReorgScenario{
			Cycles:          reorgFlags.cycles,
			QueriesPerCycle: reorgFlags.queries,
			Budget:          reorgFlags.budget,
			Epsilon:         reorgFlags.epsilon,
			Seed:            s.Seed,
			Interval:        reorgFlags.interval,
			Daemon:          reorgFlags.daemon,
		})
		if err != nil {
			return err
		}
		defer res.Close()
		fmt.Fprint(out, res.String())
		if reorgFlags.benchJSON != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(reorgFlags.benchJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	case "serve":
		res, err := experiments.Serve(s, experiments.ServeScenario{
			Queries:      serveFlags.queries,
			Concurrency:  serveFlags.concurrency,
			Workers:      serveFlags.workers,
			OpenRateQPS:  serveFlags.rateQPS,
			VerifyEveryN: serveFlags.verifyEvery,
			Seed:         s.Seed,
			CacheEntries: serveFlags.cacheSize,
			Budget:       serveFlags.budget,
			Interval:     serveFlags.interval,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(out, res.String())
		if serveFlags.benchJSON != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(serveFlags.benchJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
	case "ablations":
		benches, err := benchesFor(bench, s)
		if err != nil {
			return err
		}
		for _, b := range benches {
			rows, err := experiments.Ablations(b)
			if err != nil {
				return err
			}
			experiments.PrintAblations(out, rows)
			if err := saveCSV("ablations-"+b.Name, rows); err != nil {
				return err
			}
		}
		prows, err := experiments.ReorgPruningAblation(s)
		if err != nil {
			return err
		}
		experiments.PrintReorgPruning(out, prows)
		if err := saveCSV("reorg-pruning", prows); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	printTimings(out)
	return nil
}
