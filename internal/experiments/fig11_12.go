package experiments

import (
	"sort"
	"strings"
)

// Fig11Row is one CDF point of Fig. 11: the fraction of queries achieving
// at least the given reduction in Cloud DW runtime under MTO.
type Fig11Row struct {
	Bench     string
	Versus    string  // "STO" or "Baseline"
	Reduction float64 // per-query reduction, sorted ascending
}

// Fig11 computes per-query runtime reductions of MTO relative to STO and
// Baseline on the Cloud DW emulation (§6.3). Negative reductions are
// regressions — the paper notes MTO deliberately allows some (§6.3).
func Fig11(b *Bench) ([]Fig11Row, error) {
	results := map[string]*RunResult{}
	for _, m := range []string{MethodBaseline, MethodSTO, MethodMTO} {
		res, err := RunMethod(b, m, true)
		if err != nil {
			return nil, err
		}
		results[m] = res
	}
	var rows []Fig11Row
	for _, vs := range []string{MethodSTO, MethodBaseline} {
		var reds []float64
		for i, qm := range results[MethodMTO].PerQuery {
			ref := results[vs].PerQuery[i].Seconds
			if ref <= 0 {
				continue
			}
			reds = append(reds, 1-qm.Seconds/ref)
		}
		sort.Float64s(reds)
		for _, r := range reds {
			rows = append(rows, Fig11Row{Bench: b.Name, Versus: vs, Reduction: r})
		}
	}
	return rows, nil
}

// Fig12Row is one bar group of Fig. 12: average simulated blocks accessed
// for one TPC-H template under one method.
type Fig12Row struct {
	Template string
	Method   string
	Blocks   float64 // average per query instance
}

// Fig12Templates are the five templates §6.3.1 dissects: no-join scan (Q1),
// sort-column filter (Q14), non-sort filters without joins (Q6), correlated
// dimension filters (Q4), and uncorrelated dimension filters (Q5).
var Fig12Templates = []string{"q1", "q14", "q6", "q4", "q5"}

// Fig12 measures the five templates under MTO, STO (±diPs, ±SI), and
// Baseline (±diPs, ±SI). Layouts are optimized for the full workload, as in
// the paper; only the measurement is restricted to the five templates.
func Fig12(b *Bench) ([]Fig12Row, error) {
	methods := []string{
		MethodMTO,
		MethodSTO, MethodSTODiPs, MethodSTOSI,
		MethodBaseline, MethodBaselineDiPs, MethodBaselineSI,
	}
	deployments := map[string]*Deployment{}
	var rows []Fig12Row
	for _, m := range methods {
		var d *Deployment
		var err error
		switch m {
		case MethodBaselineDiPs, MethodBaselineSI:
			d = deployments[MethodBaseline]
		case MethodSTODiPs, MethodSTOSI:
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
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, qm := range res.PerQuery {
			tmpl := strings.SplitN(qm.ID, "#", 2)[0]
			sums[tmpl] += float64(qm.Blocks)
			counts[tmpl]++
		}
		for _, tmpl := range Fig12Templates {
			if counts[tmpl] == 0 {
				continue
			}
			rows = append(rows, Fig12Row{
				Template: tmpl, Method: m,
				Blocks: sums[tmpl] / float64(counts[tmpl]),
			})
		}
	}
	return rows, nil
}
