package experiments

import (
	"math"

	"mto/internal/core"
)

// AblationRow compares MTO against one disabled design choice.
type AblationRow struct {
	Bench           string
	Variant         string
	Blocks          int
	OptimizeSeconds float64
	InducedCuts     int
}

// Ablations measures the design choices DESIGN.md calls out — the
// unique-source-column restriction (§4.1.1), the induction-depth cap,
// cardinality adjustment (also visible in Fig. 13a), intra-leaf ordering —
// plus the tuned Z-order layout of §2 as an extra reference point ("even
// when properly tuned, Z-ordering underperforms instance-optimized
// approaches").
func Ablations(b *Bench) ([]AblationRow, error) {
	variants := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"MTO (default)", func(*core.Options) {}},
		{"no unique-source restriction", func(o *core.Options) { o.DisableUniqueRestriction = true }},
		{"induction depth ≤ 1", func(o *core.Options) { o.MaxInductionDepth = 1 }},
		{"induction depth ≤ 2", func(o *core.Options) { o.MaxInductionDepth = 2 }},
		{"no cardinality adjustment", func(o *core.Options) { o.DisableCA = true }},
		{"no leaf ordering", func(o *core.Options) { o.LeafOrderKeys = nil }},
	}
	var rows []AblationRow
	// Tuned Z-order reference (not an MTO variant; no induced cuts).
	zres, err := RunMethod(b, MethodZOrder, false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Bench:   b.Name,
		Variant: "Z-order (tuned, §2)",
		Blocks:  zres.Blocks,
	})
	for _, v := range variants {
		opts := core.Options{
			BlockSize:     b.BlockSize,
			SampleRate:    b.SampleRate,
			JoinInduction: true,
			LeafOrderKeys: map[string]string(b.SortKeys),
			Seed:          b.Seed,
		}
		v.mut(&opts)
		opt, err := core.Optimize(b.Dataset, b.Workload, opts)
		if err != nil {
			return nil, err
		}
		design, err := opt.BuildDesign()
		if err != nil {
			return nil, err
		}
		res, err := runDesign(b, v.name, design, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Bench:           b.Name,
			Variant:         v.name,
			Blocks:          res.Blocks,
			OptimizeSeconds: opt.Timings().OptimizeSeconds,
			InducedCuts:     opt.Stats().InducedCuts,
		})
	}
	return rows, nil
}

// ReorgPruningRow compares the §5.1.3 pruning against exhaustive search.
type ReorgPruningRow struct {
	Variant                string
	ReoptSeconds           float64
	FracSubtreesConsidered float64
	TotalReward            float64
}

// ReorgPruningAblation plans the workload-shift reorganization with and
// without the bound-based pruning and verifies both find the same reward.
func ReorgPruningAblation(s Scale) ([]ReorgPruningRow, error) {
	var rows []ReorgPruningRow
	for _, disable := range []bool{false, true} {
		setup, err := newShiftSetup(s)
		if err != nil {
			return nil, err
		}
		defer setup.deployment.Close()
		plans, err := setup.opt.PlanReorg(setup.observed,
			core.ReorgConfig{Q: math.Inf(1), W: 100, DisablePruning: disable},
			setup.deployment.Design)
		if err != nil {
			return nil, err
		}
		row := ReorgPruningRow{Variant: "with pruning"}
		if disable {
			row.Variant = "exhaustive"
		}
		considered, total := 0, 0
		for _, p := range plans {
			considered += p.SubtreesConsidered
			total += p.SubtreesTotal
			row.ReoptSeconds += p.PlanSeconds
			row.TotalReward += p.TotalReward
		}
		if total > 0 {
			row.FracSubtreesConsidered = float64(considered) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
