package experiments

import (
	"sort"

	"mto/internal/core"
)

// Table2Row reproduces one column of the paper's Table 2: statistics of
// MTO's qd-trees on one dataset.
type Table2Row struct {
	Bench             string
	TotalCuts         int
	JoinInducedCuts   int
	AvgInductionDepth float64
	MaxInductionDepth int
	MemoryBytes       int
}

// Table2 builds MTO for each bench and reports tree statistics.
func Table2(benches []*Bench) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range benches {
		d, err := deploy(b, MethodMTO, installUniform)
		if err != nil {
			return nil, err
		}
		d.Close()
		st := d.Optimizer.Stats()
		rows = append(rows, Table2Row{
			Bench:             b.Name,
			TotalCuts:         st.TotalCuts,
			JoinInducedCuts:   st.InducedCuts,
			AvgInductionDepth: st.AvgInductionDepth(),
			MaxInductionDepth: st.MaxDepth,
			MemoryBytes:       st.MemBytes,
		})
	}
	return rows, nil
}

// Table3Row reproduces one cell block of Table 3: offline times for one
// method on one dataset, optimized at the bench's sample rate.
type Table3Row struct {
	Bench           string
	Method          string
	SampleRate      float64
	OptimizeSeconds float64
	RoutingSeconds  float64
}

// Table3 measures optimization and routing wall-clock time for MTO and STO.
func Table3(benches []*Bench) ([]Table3Row, error) {
	var rows []Table3Row
	for _, b := range benches {
		for _, m := range []string{MethodMTO, MethodSTO} {
			d, err := deploy(b, m, installUniform)
			if err != nil {
				return nil, err
			}
			d.Close()
			rows = append(rows, Table3Row{
				Bench:           b.Name,
				Method:          m,
				SampleRate:      b.SampleRate,
				OptimizeSeconds: d.OptimizeSeconds,
				RoutingSeconds:  d.RoutingSeconds,
			})
		}
	}
	return rows, nil
}

// Table4Row reproduces Table 4: how many queries (and how much time from a
// cold start, offline steps included) until MTO's cumulative timeline
// overtakes the alternative's.
type Table4Row struct {
	Bench          string
	Versus         string
	QueriesToCross int     // -1 when MTO never crosses within the workload
	SecondsToCross float64 // MTO's elapsed time at the crossover
}

// Table4 replays each workload as a timeline: a method finishes query n at
// offline-time + Σ simulated query seconds. The crossover is the first n
// where MTO's finish time is no later than the alternative's (§6.4.2).
func Table4(benches []*Bench) ([]Table4Row, error) {
	var rows []Table4Row
	for _, b := range benches {
		results := map[string]*RunResult{}
		for _, m := range []string{MethodBaseline, MethodSTO, MethodMTO} {
			res, err := RunMethod(b, m, true)
			if err != nil {
				return nil, err
			}
			results[m] = res
		}
		finish := func(r *RunResult, n int) float64 {
			t := r.OptimizeSeconds + r.RoutingSeconds
			for i := 0; i < n; i++ {
				t += r.PerQuery[i].Seconds
			}
			return t
		}
		for _, vs := range []string{MethodSTO, MethodBaseline} {
			row := Table4Row{Bench: b.Name, Versus: vs, QueriesToCross: -1}
			for n := 1; n <= len(results[MethodMTO].PerQuery); n++ {
				if finish(results[MethodMTO], n) <= finish(results[vs], n) {
					row.QueriesToCross = n
					row.SecondsToCross = finish(results[MethodMTO], n)
					break
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table5Row reproduces Table 5: reorganization behaviour after workload
// shift as the reward horizon q grows (w fixed at 100).
type Table5Row struct {
	Q                      float64
	FracDataReorganized    float64
	ReoptSeconds           float64
	FracSubtreesConsidered float64
	TotalReward            float64
}

// Table5 trains MTO on TPC-H templates 1–11, shifts to 12–22, and plans
// reorganization at each q (§6.5.1). A fresh optimizer is built per q since
// applying a plan mutates the trees.
func Table5(s Scale, qs []float64) ([]Table5Row, error) {
	var rows []Table5Row
	for _, q := range qs {
		shift, err := newShiftSetup(s)
		if err != nil {
			return nil, err
		}
		plans, err := shift.opt.PlanReorg(shift.observed, core.ReorgConfig{Q: q, W: 100}, shift.deployment.Design)
		if err != nil {
			return nil, err
		}
		row := Table5Row{Q: q}
		considered, total, rowsToMove := 0, 0, 0
		for _, p := range plans {
			considered += p.SubtreesConsidered
			total += p.SubtreesTotal
			rowsToMove += p.RowsToRewrite
			row.ReoptSeconds += p.PlanSeconds
			row.TotalReward += p.TotalReward
		}
		if total > 0 {
			row.FracSubtreesConsidered = float64(considered) / float64(total)
		}
		if n := shift.bench.Dataset.NumRows(); n > 0 {
			row.FracDataReorganized = float64(rowsToMove) / float64(n)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Q < rows[j].Q })
	return rows, nil
}
