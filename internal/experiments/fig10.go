package experiments

// Fig10aRow is one bar of Fig. 10a: simulated blocks accessed across the
// whole workload, normalized to Baseline.
type Fig10aRow struct {
	Bench      string
	Method     string
	Blocks     int
	Normalized float64
}

// Fig10a compares Baseline, Baseline+diPs, STO, STO+diPs, and MTO on
// simulated block accesses (uniform blocks, no runtime extras — §6.2.1).
func Fig10a(benches []*Bench) ([]Fig10aRow, error) {
	methods := []string{MethodBaseline, MethodBaselineDiPs, MethodSTO, MethodSTODiPs, MethodMTO}
	var rows []Fig10aRow
	for _, b := range benches {
		deployments := map[string]*Deployment{}
		baselineBlocks := 0
		for _, m := range methods {
			// Baseline and Baseline+diPs share a layout; STO pairs too.
			var d *Deployment
			var err error
			switch m {
			case MethodBaselineDiPs:
				d = deployments[MethodBaseline]
			case MethodSTODiPs:
				d = deployments[MethodSTO]
			default:
				d, err = deploy(b, m, installUniform)
				if err != nil {
					return nil, err
				}
				defer d.Close()
				deployments[m] = d
			}
			res, err := run(b, d, engineOptions(b, m, false))
			if err != nil {
				return nil, err
			}
			if m == MethodBaseline {
				baselineBlocks = res.Blocks
			}
			norm := 0.0
			if baselineBlocks > 0 {
				norm = float64(res.Blocks) / float64(baselineBlocks)
			}
			rows = append(rows, Fig10aRow{
				Bench: b.Name, Method: m, Blocks: res.Blocks, Normalized: norm,
			})
		}
	}
	return rows, nil
}

// Fig10bcRow is one bar of Figs. 10b and 10c: fraction of blocks accessed
// and end-to-end runtime on the Cloud DW emulation (jittered blocks +
// semi-join reduction), normalized to Baseline.
type Fig10bcRow struct {
	Bench        string
	Method       string
	Fraction     float64
	NormFraction float64
	Seconds      float64
	NormSeconds  float64
}

// Fig10bc compares Baseline, STO, and MTO on the Cloud DW emulation
// (§6.2.2–6.2.3). diPs are omitted, as in the paper's Cloud DW runs.
func Fig10bc(benches []*Bench) ([]Fig10bcRow, error) {
	methods := []string{MethodBaseline, MethodSTO, MethodMTO}
	var rows []Fig10bcRow
	for _, b := range benches {
		var baseFrac, baseSec float64
		for _, m := range methods {
			res, err := RunMethod(b, m, true)
			if err != nil {
				return nil, err
			}
			if m == MethodBaseline {
				baseFrac, baseSec = res.Fraction, res.Seconds
			}
			row := Fig10bcRow{
				Bench: b.Name, Method: m,
				Fraction: res.Fraction, Seconds: res.Seconds,
			}
			if baseFrac > 0 {
				row.NormFraction = res.Fraction / baseFrac
			}
			if baseSec > 0 {
				row.NormSeconds = res.Seconds / baseSec
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
