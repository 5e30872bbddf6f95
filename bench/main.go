// Command bench is the repository's end-to-end benchmark: four workloads
// that load the serve / engine / colstore / reorgd layers unevenly, a timed
// closed-loop run for the end-to-end metrics BENCHMARK.json declares, and a
// separate traced ladder run for the per-layer ones. It measures every
// layer from outside, through the packages' public functions. See
// README.md in this directory.
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh --workload tpch_cold --seed 7 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

type options struct {
	workload string
	trace    int
	aa       int
	root     string
	cfg      runConfig
}

func realMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.cfg.seed, "seed", 1, "seed of the query parameters and the drift stream")
	fs.Float64Var(&o.cfg.seconds, "seconds", -1, "measure for at least this long (default: BENCHMARK.json's run_seconds); the acceptance driver passes it")
	fs.IntVar(&o.trace, "trace", -1, "0: timed run, end-to-end metrics; 1: traced ladder run, per-layer metrics; -1: both")
	fs.IntVar(&o.aa, "aa", 0, "run each workload's timed run N times, run i on seed+i, and check the spread of every end-to-end metric against its bound")
	fs.StringVar(&o.root, "root", ".", "checkout root: where BENCHMARK.json is and bench/out goes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < -1 || o.trace > 1 || o.aa == 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments (-aa needs at least 2 runs)")
		return 2
	}
	o.cfg.clients = 2 // the reference box has two cores; see README "Load model"

	ok, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// execute runs what the options select and reports whether every run was
// correct (and, under -aa, every spread within its bound).
func execute(o options) (bool, error) {
	man, err := loadManifest(o.root)
	if err != nil {
		return false, err
	}
	if o.cfg.seconds < 0 {
		o.cfg.seconds = man.RunSeconds
	}
	selected := specs()
	if o.workload != "all" {
		s, ok := specByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []spec{s}
	}
	expected, err := loadDigests(filepath.Join(o.root, "bench", "expected_digests.json"))
	if err != nil {
		return false, err
	}

	outDir := filepath.Join(o.root, "bench", "out")
	sc := &scratch{root: filepath.Join(outDir, "tmp")}
	defer sc.removeAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		sc.removeAll()
		os.Exit(130)
	}()

	if o.aa > 0 {
		return runAA(o, selected, man, sc, expected, outDir)
	}
	var results []*runResult
	ok := true
	record := func(res *runResult, err error) error {
		if err != nil {
			return err
		}
		printResult(res)
		ok = ok && res.Correct
		results = append(results, res)
		return nil
	}
	for _, s := range selected {
		if o.trace != 1 {
			if err := record(runTimed(s, o.cfg, man, sc, expected)); err != nil {
				return false, fmt.Errorf("%s: %w", s.name, err)
			}
		}
		if o.trace != 0 {
			if err := record(runTraced(s, o.cfg, man, sc, outDir)); err != nil {
				return false, fmt.Errorf("%s: %w", s.name, err)
			}
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), results); err != nil {
		return false, err
	}
	// The acceptance driver reads the last line of a single run.
	if len(results) == 1 {
		if err := printContract(results[0]); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// printResult prints one line per metric: workload metric value unit n.
func printResult(r *runResult) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %.6g %s n=%d\n", r.Workload, name, m.Value, m.Unit, m.N)
	}
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("%s %s: attempted=%d failed=%d failed_frac=%g verified=%d gen_skew=%d digest=%s\n",
		r.Workload, kind, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)), r.Verified, r.GenSkew, r.Digest)
	for _, n := range r.Notes {
		fmt.Printf("%s note: %s\n", r.Workload, n)
	}
}

// printContract prints the driver's result object as the last line.
func printContract(r *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func loadDigests(path string) (digests, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d digests
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// runAA repeats each workload's timed run, run i on seed+i as the
// acceptance driver does, and checks per end-to-end metric the spread the
// driver checks: the distance between the first and third quartile as a
// share of the median, against the metric's bound. setup_s is reported but,
// as in the driver, not gated on spread.
func runAA(o options, selected []spec, man *manifest, sc *scratch, expected digests, outDir string) (bool, error) {
	ok := true
	type row struct {
		Workload, Metric       string
		Median, Q1, Q3, Spread float64
		Bound                  float64
		Within                 bool
	}
	var rows []row
	for _, s := range selected {
		values := map[string][]float64{}
		for i := 0; i < o.aa; i++ {
			cfg := o.cfg
			cfg.seed += int64(i)
			res, err := runTimed(s, cfg, man, sc, expected)
			if err != nil {
				return false, fmt.Errorf("%s: %w", s.name, err)
			}
			printResult(res)
			ok = ok && res.Correct
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range man.EndToEnd {
			q1, q3 := quartiles(values[d.Name])
			med := median(values[d.Name])
			r := row{s.name, d.Name, med, q1, q3, ratio(q3-q1, med), d.Bound, true}
			if d.Name != "setup_s" && r.Spread > d.Bound {
				r.Within, ok = false, false
			}
			rows = append(rows, r)
		}
	}
	fmt.Printf("\n%-12s %-24s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, r := range rows {
		flag := ""
		if !r.Within {
			flag = "  EXCEEDED"
		}
		fmt.Printf("%-12s %-24s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Spread, r.Bound, flag)
	}
	return ok, writeJSON(filepath.Join(outDir, "aa.json"), rows)
}
