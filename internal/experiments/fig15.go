package experiments

import "mto/internal/datagen"

// Fig15aRow is one point of Fig. 15a: average blocks accessed per query as
// the workload grows (queries per TPC-H template).
type Fig15aRow struct {
	PerTemplate    int
	Queries        int
	Method         string
	AvgBlocks      float64
	VsBaselineNorm float64
}

// Fig15a sweeps the TPC-H workload size (§6.6.1).
func Fig15a(s Scale, perTemplateSteps []int) ([]Fig15aRow, error) {
	var rows []Fig15aRow
	for _, pt := range perTemplateSteps {
		sc := s
		sc.PerTemplate = pt
		b := TPCHBench(sc)
		var baseAvg float64
		for _, m := range []string{MethodBaseline, MethodSTO, MethodMTO} {
			res, err := RunMethod(b, m, false)
			if err != nil {
				return nil, err
			}
			avg := float64(res.Blocks) / float64(b.Workload.Len())
			if m == MethodBaseline {
				baseAvg = avg
			}
			norm := 0.0
			if baseAvg > 0 {
				norm = avg / baseAvg
			}
			rows = append(rows, Fig15aRow{
				PerTemplate: pt, Queries: b.Workload.Len(),
				Method: m, AvgBlocks: avg, VsBaselineNorm: norm,
			})
		}
	}
	return rows, nil
}

// Fig15bRow is one point of Fig. 15b: blocks accessed normalized to
// Baseline as the data size grows.
type Fig15bRow struct {
	SF             float64
	Method         string
	Blocks         int
	VsBaselineNorm float64
}

// Fig15b sweeps the TPC-H scale factor with a fixed workload and block size
// (§6.6.2): larger data means more blocks, which gives the learned layouts
// more degrees of freedom and a growing advantage.
func Fig15b(s Scale, sfs []float64) ([]Fig15bRow, error) {
	var rows []Fig15bRow
	for _, sf := range sfs {
		sc := s
		sc.SF = sf
		b := TPCHBench(sc)
		// Keep the workload identical across scale factors.
		b.Workload = datagen.TPCHWorkload(s.PerTemplate, s.Seed+1)
		var base int
		for _, m := range []string{MethodBaseline, MethodSTO, MethodMTO} {
			res, err := RunMethod(b, m, false)
			if err != nil {
				return nil, err
			}
			if m == MethodBaseline {
				base = res.Blocks
			}
			norm := 0.0
			if base > 0 {
				norm = float64(res.Blocks) / float64(base)
			}
			rows = append(rows, Fig15bRow{SF: sf, Method: m, Blocks: res.Blocks, VsBaselineNorm: norm})
		}
	}
	return rows, nil
}
