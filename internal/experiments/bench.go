// Package experiments implements one harness per table and figure of the
// paper's evaluation (§6). Each harness returns typed rows so that both the
// mtobench CLI and the Go benchmark suite can regenerate the paper's
// results at laptop scale. DESIGN.md maps every experiment id to its
// harness; EXPERIMENTS.md records paper-vs-measured outcomes.
package experiments

import (
	"fmt"

	"mto/internal/datagen"
	"mto/internal/layout"
	"mto/internal/relation"
	"mto/internal/workload"
)

// Bench bundles a dataset, its workload, and the tuned Baseline
// configuration (§6.1).
type Bench struct {
	Name      string
	Dataset   *relation.Dataset
	Workload  *workload.Workload
	SortKeys  layout.SortKeys
	BlockSize int
	// SampleRate is the optimization sampling rate (Table 3 uses 0.03 for
	// SSB/TPC-H and 0.05 for TPC-DS at SF 100; at bench scale sampling is
	// cheap, so the default Benches use moderate rates).
	SampleRate float64
	// Seed drives jittered installs and any per-bench randomness.
	Seed int64
	// Parallel bounds the worker budget everywhere the bench fans out:
	// concurrent query executions during workload replay, and the offline
	// phases (qd-tree construction, record routing, per-table layout
	// sorts). 0 selects GOMAXPROCS, 1 forces the sequential paths.
	// Results and learned layouts are byte-identical at any setting.
	Parallel int
	// Store selects where the deployments' columnar segments live: "mem"
	// (default, held in memory) or "disk" (files under DataDir). It is one
	// store and one read path either way; Results are identical.
	Store string
	// DataDir is the segment directory for Store "disk"; every deployment
	// gets its own subdirectory.
	DataDir string
	// CacheMB is the buffer-pool capacity for Store "disk", in MiB of
	// cached block data; 0 disables caching.
	CacheMB int
}

// Scale configures how large the experiment datasets are. The paper runs
// SF 100; the default here keeps every experiment under a minute while
// preserving the blocks-per-table ratios (see DESIGN.md substitutions).
type Scale struct {
	SF           float64
	PerTemplate  int // TPC-H queries per template (paper default 8)
	BlockSizeSSB int
	BlockSizeH   int
	BlockSizeDS  int
	Seed         int64
	// Parallel is the worker budget passed to each Bench, bounding both
	// workload replay and the offline build/routing phases
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallel int
	// Store/DataDir/CacheMB select each Bench's segment store; see Bench.
	Store   string
	DataDir string
	CacheMB int
}

// DefaultScale is used by the CLI and benchmarks unless overridden.
func DefaultScale() Scale {
	return Scale{
		SF:           0.02,
		PerTemplate:  8,
		BlockSizeSSB: 1000,
		BlockSizeH:   1000,
		BlockSizeDS:  500,
		Seed:         1,
	}
}

// SSBBench builds the Star Schema Benchmark bundle (13 queries).
func SSBBench(s Scale) *Bench {
	return &Bench{
		Name:       "SSB",
		Dataset:    datagen.SSB(datagen.SSBConfig{ScaleFactor: s.SF, Seed: s.Seed}),
		Workload:   datagen.SSBWorkload(s.Seed + 1),
		SortKeys:   datagen.SSBSortKeys(),
		BlockSize:  s.BlockSizeSSB,
		SampleRate: 0.25,
		Seed:       s.Seed,
		Parallel:   s.Parallel,
		Store:      s.Store,
		DataDir:    s.DataDir,
		CacheMB:    s.CacheMB,
	}
}

// TPCHBench builds the TPC-H bundle (22 templates × PerTemplate queries).
func TPCHBench(s Scale) *Bench {
	return &Bench{
		Name:       "TPC-H",
		Dataset:    datagen.TPCH(datagen.TPCHConfig{ScaleFactor: s.SF, Seed: s.Seed}),
		Workload:   datagen.TPCHWorkload(s.PerTemplate, s.Seed+1),
		SortKeys:   datagen.TPCHSortKeys(),
		BlockSize:  s.BlockSizeH,
		SampleRate: 0.25,
		Seed:       s.Seed,
		Parallel:   s.Parallel,
		Store:      s.Store,
		DataDir:    s.DataDir,
		CacheMB:    s.CacheMB,
	}
}

// TPCDSBench builds the TPC-DS-like bundle (46 templates × 1 query).
func TPCDSBench(s Scale) *Bench {
	return &Bench{
		Name:       "TPC-DS",
		Dataset:    datagen.TPCDS(datagen.TPCDSConfig{ScaleFactor: s.SF, Seed: s.Seed}),
		Workload:   datagen.TPCDSWorkload(s.Seed + 1),
		SortKeys:   datagen.TPCDSSortKeys(),
		BlockSize:  s.BlockSizeDS,
		SampleRate: 0.25,
		Seed:       s.Seed,
		Parallel:   s.Parallel,
		Store:      s.Store,
		DataDir:    s.DataDir,
		CacheMB:    s.CacheMB,
	}
}

// AllBenches returns the three evaluation bundles.
func AllBenches(s Scale) []*Bench {
	return []*Bench{SSBBench(s), TPCHBench(s), TPCDSBench(s)}
}

// BenchName resolves "ssb", "tpch" or "tpcds" (or a Bench.Name spelling)
// to the Name of the bench BenchByName builds, without building it.
func BenchName(name string) (string, error) {
	switch name {
	case "ssb", "SSB":
		return "SSB", nil
	case "tpch", "TPC-H", "tpc-h":
		return "TPC-H", nil
	case "tpcds", "TPC-DS", "tpc-ds":
		return "TPC-DS", nil
	default:
		return "", fmt.Errorf("experiments: unknown bench %q (want ssb, tpch, or tpcds)", name)
	}
}

// BenchByName builds the bench BenchName resolves name to.
func BenchByName(name string, s Scale) (*Bench, error) {
	canon, err := BenchName(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "SSB":
		return SSBBench(s), nil
	case "TPC-H":
		return TPCHBench(s), nil
	default:
		return TPCDSBench(s), nil
	}
}
