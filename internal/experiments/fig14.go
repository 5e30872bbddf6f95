package experiments

import (
	"math"

	"mto/internal/core"
	"mto/internal/datagen"
	"mto/internal/engine"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// shiftSetup is the §6.5.1 scenario: MTO optimized for TPC-H templates
// 1–11, then observing queries drawn from templates 12–22.
type shiftSetup struct {
	bench      *Bench
	observed   *workload.Workload
	opt        *core.Optimizer
	deployment *Deployment
}

// newShiftSetup builds the scenario from scratch (applying a plan mutates
// the trees, so sweeps construct one setup per configuration).
func newShiftSetup(s Scale) (*shiftSetup, error) {
	b := TPCHBench(s)
	b.Workload = datagen.TPCHWorkloadTemplates(1, 11, s.PerTemplate, s.Seed+1)
	observed := datagen.TPCHWorkloadTemplates(12, 22, s.PerTemplate, s.Seed+2)
	d, err := deploy(b, MethodMTO, installUniform)
	if err != nil {
		return nil, err
	}
	return &shiftSetup{bench: b, observed: observed, opt: d.Optimizer, deployment: d}, nil
}

// Fig14aRow summarizes one scenario of the workload-shift experiment.
type Fig14aRow struct {
	Scenario string
	// AvgQuerySeconds is the mean simulated query time on the shifted
	// workload under the scenario's final layout.
	AvgQuerySeconds float64
	// ReorgPlanSeconds is the wall-clock re-optimization time.
	ReorgPlanSeconds float64
	// ReorgWriteSeconds is the simulated block-rewrite cost.
	ReorgWriteSeconds float64
	// FracDataReorganized is the fraction of records moved.
	FracDataReorganized float64
}

// Fig14a runs the workload-shift experiment (§6.5.1): Baseline, MTO without
// reorganization, MTO with partial reorganization (w=100), and MTO with
// full reorganization (q=∞).
func Fig14a(s Scale) ([]Fig14aRow, error) {
	var rows []Fig14aRow

	// Baseline reference on the shifted workload.
	b := TPCHBench(s)
	observed := datagen.TPCHWorkloadTemplates(12, 22, s.PerTemplate, s.Seed+2)
	shiftedBench := *b
	shiftedBench.Workload = observed
	baseRes, err := RunMethod(&shiftedBench, MethodBaseline, true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig14aRow{
		Scenario:        "Baseline",
		AvgQuerySeconds: baseRes.Seconds / float64(observed.Len()),
	})

	// The paper uses q=200 at SF 100; at laptop scale the same horizon
	// rarely clears the reward bar (fewer, larger-relative blocks), so the
	// partial scenario uses q=500 — Table 5 sweeps the full range.
	scenarios := []struct {
		name string
		q    float64
	}{
		{"MTO no reorg", 0},
		{"MTO partial reorg (q=500)", 500},
		{"MTO full reorg (q=inf)", math.Inf(1)},
	}
	for _, sc := range scenarios {
		setup, err := newShiftSetup(s)
		if err != nil {
			return nil, err
		}
		defer setup.deployment.Close()
		row := Fig14aRow{Scenario: sc.name}
		if sc.q > 0 {
			plans, err := setup.opt.PlanReorg(setup.observed, core.ReorgConfig{Q: sc.q, W: 100}, setup.deployment.Design)
			if err != nil {
				return nil, err
			}
			for _, p := range plans {
				row.ReorgPlanSeconds += p.PlanSeconds
			}
			stats, err := setup.opt.ApplyReorg(plans, setup.deployment.Design, setup.deployment.Store)
			if err != nil {
				return nil, err
			}
			row.ReorgWriteSeconds = stats.SimSeconds
			row.FracDataReorganized = stats.FracDataReorganized
		}
		eng := engine.New(setup.deployment.Store, setup.deployment.Design, setup.bench.Dataset, engine.CloudDWOptions())
		wr, err := engine.RunWorkload(eng, setup.observed.Queries, engine.RunOptions{Parallelism: s.Parallel})
		if err != nil {
			return nil, err
		}
		row.AvgQuerySeconds = wr.Seconds / float64(setup.observed.Len())
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig14bRow summarizes one scenario of the dynamic-data experiment.
type Fig14bRow struct {
	Scenario string
	// AvgQuerySeconds is the mean query time on the workload after the
	// scenario's final state.
	AvgQuerySeconds float64
	// CutUpdateSeconds is the window during which inserted records could
	// not be routed (§6.5.2's shaded region).
	CutUpdateSeconds float64
	// InsertWriteSeconds is the simulated delta-merge cost.
	InsertWriteSeconds float64
	// ReorgWriteSeconds is the optional post-insert reorganization cost.
	ReorgWriteSeconds float64
}

// Fig14b runs the dynamic-data experiment (§6.5.2): drop orders after
// 1996-01-01 (and their lineitems), optimize MTO on the truncated data,
// re-insert the dropped records, and measure with and without a follow-up
// reorganization, against a Baseline built on the full data.
func Fig14b(s Scale) ([]Fig14bRow, error) {
	full := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: s.SF, Seed: s.Seed})
	w := datagen.TPCHWorkload(s.PerTemplate, s.Seed+1)
	cutoff := value.MustDate("1996-01-01").Int()

	var rows []Fig14bRow

	// Baseline on the full dataset.
	fullBench := &Bench{
		Name: "TPC-H", Dataset: full, Workload: w,
		SortKeys: datagen.TPCHSortKeys(), BlockSize: s.BlockSizeH,
		SampleRate: 0.25, Seed: s.Seed,
	}
	baseRes, err := RunMethod(fullBench, MethodBaseline, true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig14bRow{
		Scenario:        "Baseline (full data)",
		AvgQuerySeconds: baseRes.Seconds / float64(w.Len()),
	})

	for _, withReorg := range []bool{false, true} {
		// Re-partition per scenario: appendRows mutates the partial
		// dataset's fact tables in place.
		partial, inserts, err := splitTPCHAt(full, cutoff)
		if err != nil {
			return nil, err
		}
		// Optimize on the truncated data.
		pb := &Bench{
			Name: "TPC-H", Dataset: partial.ds, Workload: w,
			SortKeys: datagen.TPCHSortKeys(), BlockSize: s.BlockSizeH,
			SampleRate: 0.25, Seed: s.Seed,
		}
		d, err := deploy(pb, MethodMTO, installUniform)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		// Insert the removed records: orders first (referential
		// integrity), then lineitem.
		row := Fig14bRow{Scenario: "MTO after insert"}
		if withReorg {
			row.Scenario = "MTO after insert + reorg"
		}
		orderRows := partial.appendRows(full, "orders", inserts.orders)
		st, err := d.Optimizer.ApplyInsert("orders", orderRows, d.Design, d.Store)
		if err != nil {
			return nil, err
		}
		row.CutUpdateSeconds += st.CutUpdateSeconds
		row.InsertWriteSeconds += st.SimSeconds
		lineRows := partial.appendRows(full, "lineitem", inserts.lineitem)
		st, err = d.Optimizer.ApplyInsert("lineitem", lineRows, d.Design, d.Store)
		if err != nil {
			return nil, err
		}
		row.CutUpdateSeconds += st.CutUpdateSeconds
		row.InsertWriteSeconds += st.SimSeconds

		if withReorg {
			plans, err := d.Optimizer.PlanReorg(w, core.ReorgConfig{Q: 500, W: 100}, d.Design)
			if err != nil {
				return nil, err
			}
			stats, err := d.Optimizer.ApplyReorg(plans, d.Design, d.Store)
			if err != nil {
				return nil, err
			}
			row.ReorgWriteSeconds = stats.SimSeconds
		}

		eng := engine.New(d.Store, d.Design, partial.ds, engine.CloudDWOptions())
		wr, err := engine.RunWorkload(eng, w.Queries, engine.RunOptions{Parallelism: s.Parallel})
		if err != nil {
			return nil, err
		}
		row.AvgQuerySeconds = wr.Seconds / float64(w.Len())
		rows = append(rows, row)
	}
	return rows, nil
}

// partialTPCH wraps the truncated dataset whose orders/lineitem tables are
// later extended in place.
type partialTPCH struct {
	ds *relation.Dataset
}

// insertSets records which full-dataset rows were withheld.
type insertSets struct {
	orders   []int
	lineitem []int
}

// splitTPCHAt builds a dataset whose orders (and joining lineitems) before
// the cutoff are present, remembering the withheld row indexes.
func splitTPCHAt(full *relation.Dataset, cutoff int64) (*partialTPCH, *insertSets, error) {
	p := &partialTPCH{ds: relation.NewDataset()}
	ins := &insertSets{}

	orders := full.Table("orders")
	odCol := orders.Schema().MustColumnIndex("o_orderdate")
	okCol := orders.Schema().MustColumnIndex("o_orderkey")
	keptOrders := map[int64]bool{}
	newOrders := relation.NewTable(orders.Schema())
	for r := 0; r < orders.NumRows(); r++ {
		if orders.Value(r, odCol).Int() < cutoff {
			newOrders.MustAppendRow(orders.Row(r)...)
			keptOrders[orders.Value(r, okCol).Int()] = true
		} else {
			ins.orders = append(ins.orders, r)
		}
	}
	line := full.Table("lineitem")
	lkCol := line.Schema().MustColumnIndex("l_orderkey")
	newLine := relation.NewTable(line.Schema())
	for r := 0; r < line.NumRows(); r++ {
		if keptOrders[line.Value(r, lkCol).Int()] {
			newLine.MustAppendRow(line.Row(r)...)
		} else {
			ins.lineitem = append(ins.lineitem, r)
		}
	}
	for _, name := range full.TableNames() {
		switch name {
		case "orders":
			p.ds.MustAddTable(newOrders)
		case "lineitem":
			p.ds.MustAddTable(newLine)
		default:
			p.ds.MustAddTable(full.Table(name))
		}
	}
	return p, ins, nil
}

// appendRows copies the withheld full-dataset rows into the partial table
// and returns their new row indexes.
func (p *partialTPCH) appendRows(full *relation.Dataset, table string, rows []int) []int {
	src := full.Table(table)
	dst := p.ds.Table(table)
	out := make([]int, 0, len(rows))
	for _, r := range rows {
		dst.MustAppendRow(src.Row(r)...)
		out = append(out, dst.NumRows()-1)
	}
	return out
}
