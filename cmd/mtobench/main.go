// Command mtobench regenerates the tables and figures of "Instance-
// Optimized Data Layouts for Cloud Analytics Workloads" (SIGMOD 2021) at
// laptop scale. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured outcomes. The system
// benchmark (throughput, latency, the reorg daemon under load) is
// `bash bench/run.sh`, not this command.
//
// Usage:
//
//	mtobench -exp fig10a [-bench ssb|tpch|tpcds] [-sf 0.02] [-per-template 8] [-seed 1] [-parallel N] [-csv DIR]
//	mtobench -exp all
//
// Experiments: fig10a fig10bc table2 fig11 fig12 table3 fig13a fig13b
// table4 fig14a table5 fig14b fig15a fig15b ablations all. fig12, fig13a,
// fig13b, fig14a, table5, fig14b, fig15a and fig15b run on TPC-H only: with
// -bench naming another bench they fail, and -exp all skips them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"mto/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mtobench:", err)
		os.Exit(1)
	}
}

// run parses args and runs the experiment they name. It returns only after
// its deferred cleanup (the -store disk temp directory, the CPU profile)
// has run, so main's exit never skips it.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("mtobench", flag.ContinueOnError)
	var (
		exp         = fs.String("exp", "all", "experiment id (fig10a, table2, ..., all)")
		sf          = fs.Float64("sf", 0.02, "scale factor for the generated datasets")
		perTemplate = fs.Int("per-template", 8, "TPC-H queries per template")
		seed        = fs.Int64("seed", 1, "random seed")
		bench       = fs.String("bench", "", "restrict to one bench (ssb, tpch, tpcds); TPC-H-only experiments fail for another bench, and -exp all skips them")
		parallel    = fs.Int("parallel", 0, "worker budget for workload replay AND the offline build/routing phases (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		store       = fs.String("store", "mem", `where the columnar segments live: "mem" (held in memory) or "disk" (segment files; identical results)`)
		datadir     = fs.String("datadir", "", `segment directory for -store=disk (default: a temp dir removed on exit)`)
		cacheMB     = fs.Int("cache-mb", 64, "buffer-pool capacity for -store=disk in MiB of cached block data (0 = no cache)")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
		csvDir      = fs.String("csv", "", "also write each experiment's rows as CSV into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

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
				return err
			}
			defer os.RemoveAll(dir)
			scale.DataDir = dir
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	r := &runner{scale: scale, csvDir: *csvDir, out: out}
	if *bench != "" {
		if r.bench, err = experiments.BenchName(*bench); err != nil {
			return err
		}
	}
	err = r.runNamed(*exp)
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			return errors.Join(err, merr)
		}
		runtime.GC()
		return errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
	}
	return err
}

// experiment is one row of the table below: a paper figure or table.
type experiment struct {
	name string
	// tpchOnly marks the experiments defined on TPC-H alone; the others
	// run on every bench, or on the one -bench names.
	tpchOnly bool
	run      func(r *runner) error
}

// table lists the experiments in the order -exp all runs them.
var table = []experiment{
	{name: "fig10a", run: onBenches("fig10a", experiments.Fig10a, experiments.PrintFig10a)},
	{name: "fig10bc", run: onBenches("fig10bc", experiments.Fig10bc, experiments.PrintFig10bc)},
	{name: "table2", run: onBenches("table2", experiments.Table2, experiments.PrintTable2)},
	{name: "fig11", run: perBench("fig11", experiments.Fig11, experiments.PrintFig11)},
	{name: "fig12", tpchOnly: true, run: onTPCH("fig12", experiments.Fig12, experiments.PrintFig12)},
	{name: "table3", run: onBenches("table3", experiments.Table3, experiments.PrintTable3)},
	{name: "fig13a", tpchOnly: true, run: onTPCH("fig13a", withRates(experiments.Fig13a), experiments.PrintFig13a)},
	{name: "fig13b", tpchOnly: true, run: onTPCH("fig13b", withRates(experiments.Fig13b), experiments.PrintFig13b)},
	{name: "table4", run: onBenches("table4", experiments.Table4, experiments.PrintTable4)},
	{name: "fig14a", tpchOnly: true, run: onScale("fig14a", experiments.Fig14a, experiments.PrintFig14a)},
	{name: "table5", tpchOnly: true, run: onScale("table5", func(s experiments.Scale) ([]experiments.Table5Row, error) {
		return experiments.Table5(s, []float64{100, 200, 500, 1000, math.Inf(1)})
	}, experiments.PrintTable5)},
	{name: "fig14b", tpchOnly: true, run: onScale("fig14b", experiments.Fig14b, experiments.PrintFig14b)},
	{name: "fig15a", tpchOnly: true, run: onScale("fig15a", func(s experiments.Scale) ([]experiments.Fig15aRow, error) {
		return experiments.Fig15a(s, []int{1, 2, 4, 8, 16})
	}, experiments.PrintFig15a)},
	{name: "fig15b", tpchOnly: true, run: onScale("fig15b", func(s experiments.Scale) ([]experiments.Fig15bRow, error) {
		return experiments.Fig15b(s, []float64{0.005, 0.01, 0.02, 0.05})
	}, experiments.PrintFig15b)},
	{name: "ablations", run: ablations},
}

// runner carries the flags every experiment shares.
type runner struct {
	scale  experiments.Scale
	bench  string // -bench as a Bench.Name; "" = every bench
	csvDir string
	out    io.Writer
}

// runNamed runs one experiment, or with "all" every experiment the -bench
// restriction admits.
func (r *runner) runNamed(name string) error {
	if name == "all" {
		for _, e := range table {
			if e.tpchOnly && !r.admitsTPCH() {
				fmt.Fprintf(r.out, "%s: skipped, runs on TPC-H only (-bench %s)\n", e.name, r.bench)
				continue
			}
			if err := r.runOne(e); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	for _, e := range table {
		if e.name != name {
			continue
		}
		if e.tpchOnly && !r.admitsTPCH() {
			return fmt.Errorf("%s runs on TPC-H only, not -bench %s", name, r.bench)
		}
		return r.runOne(e)
	}
	return fmt.Errorf("unknown experiment %q", name)
}

func (r *runner) runOne(e experiment) error {
	if err := e.run(r); err != nil {
		return err
	}
	printTimings(r.out)
	return nil
}

// admitsTPCH reports whether -bench leaves TPC-H in.
func (r *runner) admitsTPCH() bool { return r.bench == "" || r.bench == "TPC-H" }

func (r *runner) benches() ([]*experiments.Bench, error) {
	if r.bench == "" {
		return experiments.AllBenches(r.scale), nil
	}
	b, err := experiments.BenchByName(r.bench, r.scale)
	if err != nil {
		return nil, err
	}
	return []*experiments.Bench{b}, nil
}

// emit prints rows and, when -csv is set, writes them to <csv>.csv.
func emit[R any](r *runner, csv string, rows []R, print func(io.Writer, []R)) error {
	print(r.out, rows)
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.csvDir, csv+".csv"))
	if err != nil {
		return err
	}
	if err := experiments.WriteRowsCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// onBenches runs f once over the selected benches.
func onBenches[R any](csv string, f func([]*experiments.Bench) ([]R, error), print func(io.Writer, []R)) func(*runner) error {
	return func(r *runner) error {
		benches, err := r.benches()
		if err != nil {
			return err
		}
		rows, err := f(benches)
		if err != nil {
			return err
		}
		return emit(r, csv, rows, print)
	}
}

// perBench runs f on each selected bench, one table and <csv>-<bench>.csv
// per bench.
func perBench[R any](csv string, f func(*experiments.Bench) ([]R, error), print func(io.Writer, []R)) func(*runner) error {
	return func(r *runner) error {
		benches, err := r.benches()
		if err != nil {
			return err
		}
		for _, b := range benches {
			rows, err := f(b)
			if err != nil {
				return err
			}
			if err := emit(r, csv+"-"+b.Name, rows, print); err != nil {
				return err
			}
		}
		return nil
	}
}

// onTPCH runs f on the TPC-H bench.
func onTPCH[R any](csv string, f func(*experiments.Bench) ([]R, error), print func(io.Writer, []R)) func(*runner) error {
	return func(r *runner) error {
		b, err := experiments.BenchByName("tpch", r.scale)
		if err != nil {
			return err
		}
		rows, err := f(b)
		if err != nil {
			return err
		}
		return emit(r, csv, rows, print)
	}
}

// onScale runs f, which builds its own TPC-H setups from the scale.
func onScale[R any](csv string, f func(experiments.Scale) ([]R, error), print func(io.Writer, []R)) func(*runner) error {
	return func(r *runner) error {
		rows, err := f(r.scale)
		if err != nil {
			return err
		}
		return emit(r, csv, rows, print)
	}
}

// withRates binds Fig. 13's optimizer sampling rates.
func withRates[R any](f func(*experiments.Bench, []float64) ([]R, error)) func(*experiments.Bench) ([]R, error) {
	return func(b *experiments.Bench) ([]R, error) {
		return f(b, []float64{1, 0.5, 0.25, 0.1, 0.05})
	}
}

// ablations runs the per-bench design ablations, then, when TPC-H is
// selected, the reorganization-pruning ablation.
func ablations(r *runner) error {
	if err := perBench("ablations", experiments.Ablations, experiments.PrintAblations)(r); err != nil {
		return err
	}
	if !r.admitsTPCH() {
		return nil
	}
	return onScale("reorg-pruning", experiments.ReorgPruningAblation, experiments.PrintReorgPruning)(r)
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
