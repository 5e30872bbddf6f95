package experiments

import "mto/internal/core"

// Fig13aRow is one point of Fig. 13a: optimizing TPC-H at one sample rate
// with one method, reporting optimization time, the blocks the layout
// actually accesses on the full data (solid lines), and the blocks the
// sampled build *estimates* it will access (dotted lines). Without CA the
// estimate diverges badly (§6.4.1).
type Fig13aRow struct {
	Method          string
	SampleRate      float64
	OptimizeSeconds float64
	MeasuredBlocks  int
	EstimatedBlocks float64
}

// Fig13a sweeps sample rates for MTO with CA, MTO without CA, and STO.
func Fig13a(b *Bench, rates []float64) ([]Fig13aRow, error) {
	type variant struct {
		name      string
		induction bool
		disableCA bool
	}
	variants := []variant{
		{"MTO+CA", true, false},
		{"MTO-noCA", true, true},
		{"STO", false, false},
	}
	var rows []Fig13aRow
	for _, rate := range rates {
		for _, v := range variants {
			opt, err := core.Optimize(b.Dataset, b.Workload, core.Options{
				BlockSize:     b.BlockSize,
				SampleRate:    rate,
				JoinInduction: v.induction,
				DisableCA:     v.disableCA,
				LeafOrderKeys: map[string]string(b.SortKeys),
				Seed:          b.Seed,
			})
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
			rows = append(rows, Fig13aRow{
				Method:          v.name,
				SampleRate:      rate,
				OptimizeSeconds: opt.Timings().OptimizeSeconds,
				MeasuredBlocks:  res.Blocks,
				EstimatedBlocks: estimateBlocks(b, opt),
			})
		}
	}
	return rows, nil
}

// estimateBlocks predicts the workload's block accesses from the build-time
// trees' (CA-adjusted) cardinality estimates — the metric the optimizer
// itself believes while working on the sample.
func estimateBlocks(b *Bench, opt *core.Optimizer) float64 {
	total := 0.0
	bs := float64(b.BlockSize)
	for _, q := range b.Workload.Queries {
		seen := map[string]bool{}
		for _, alias := range q.Aliases() {
			base := q.BaseTable(alias)
			if seen[base] {
				continue // RouteQuery already unions a table's aliases
			}
			seen[base] = true
			tree := opt.Tree(base)
			if tree == nil {
				continue
			}
			for _, li := range tree.RouteQuery(q) {
				est := tree.Leaves()[li].EstRows
				blocks := est / bs
				if blocks < 1 {
					blocks = 1
				}
				total += blocks
			}
		}
	}
	return total
}

// Fig13bRow is one point of Fig. 13b: total end-to-end time (offline
// optimization + routing + the whole workload's simulated execution) at one
// sample rate.
type Fig13bRow struct {
	Method       string
	SampleRate   float64
	TotalSeconds float64
}

// Fig13b sweeps sample rates for MTO and STO, plus the Baseline reference
// (which has no offline step and so is one flat line).
func Fig13b(b *Bench, rates []float64) ([]Fig13bRow, error) {
	var rows []Fig13bRow
	baseRes, err := RunMethod(b, MethodBaseline, true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig13bRow{Method: MethodBaseline, SampleRate: 1, TotalSeconds: baseRes.Seconds})
	for _, rate := range rates {
		for _, m := range []string{MethodMTO, MethodSTO} {
			saved := b.SampleRate
			b.SampleRate = rate
			res, err := RunMethod(b, m, true)
			b.SampleRate = saved
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig13bRow{
				Method:       m,
				SampleRate:   rate,
				TotalSeconds: res.OptimizeSeconds + res.RoutingSeconds + res.Seconds,
			})
		}
	}
	return rows, nil
}
