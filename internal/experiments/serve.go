package experiments

import (
	"errors"
	"time"

	"mto/internal/reorgd"
	"mto/internal/serve"
	"mto/internal/workload"
)

// ServeScenario parameterizes the three-tenant deployment cmd/mtoserve
// serves: SSB, TPC-H and TPC-DS behind one serve.Server, the TPC-H tenant
// trained on templates 1–11 with a live reorg daemon that reorganizes as
// its traffic drifts into 12–22.
type ServeScenario struct {
	// Workers is the server's number of execution slots (≤ 0: serve.New's
	// default).
	Workers int
	// Rate/Burst configure admission control (Rate 0 disables; Burst 0
	// means Rate).
	Rate, Burst float64
	// CacheEntries caps the result cache (0: serve.New's default; negative
	// disables it).
	CacheEntries int
	// Budget / Interval configure the TPC-H tenant's live daemon: blocks
	// written per cycle (0 means unlimited) and the background cycle
	// period (0: the daemon's default, 1s).
	Budget   int
	Interval time.Duration
}

// ServeDeployment is a ready three-tenant server over the deployments it
// owns.
type ServeDeployment struct {
	Server *serve.Server

	deployments []*Deployment
}

// Close releases the tenants' stores; shut the server down first.
func (d *ServeDeployment) Close() error {
	var errs []error
	for _, dep := range d.deployments {
		errs = append(errs, dep.Close())
	}
	return errors.Join(errs...)
}

// NewServeDeployment builds the three-tenant server: SSB and TPC-DS on
// MTO layouts over their full workloads, TPC-H trained on templates 1–11
// with a live reorg daemon, and its registry holding templates 1–22.
// The server is not started.
func NewServeDeployment(s Scale, sc ServeScenario) (_ *ServeDeployment, err error) {
	dep := &ServeDeployment{}
	defer func() {
		if err != nil {
			dep.Close()
		}
	}()

	ssb := SSBBench(s)
	dssb, err := DeployMethod(ssb, MethodMTO, false)
	if err != nil {
		return nil, err
	}
	dep.deployments = append(dep.deployments, dssb)
	shift, err := newShiftSetup(s)
	if err != nil {
		return nil, err
	}
	dep.deployments = append(dep.deployments, shift.deployment)
	tds := TPCDSBench(s)
	dtds, err := DeployMethod(tds, MethodMTO, false)
	if err != nil {
		return nil, err
	}
	dep.deployments = append(dep.deployments, dtds)

	// TPC-H clients may submit both trained and shifted templates.
	tpchTemplates := make([]*workload.Query, 0, shift.bench.Workload.Len()+shift.observed.Len())
	tpchTemplates = append(tpchTemplates, shift.bench.Workload.Queries...)
	tpchTemplates = append(tpchTemplates, shift.observed.Queries...)

	dep.Server, err = serve.New(serve.Config{
		Workers:      sc.Workers,
		Rate:         sc.Rate,
		Burst:        sc.Burst,
		CacheEntries: sc.CacheEntries,
		Tenants: []serve.TenantConfig{
			{
				Name: "ssb", Dataset: ssb.Dataset, Design: dssb.Design,
				Store: dssb.Store, Optimizer: dssb.Optimizer,
				Templates: ssb.Workload.Queries, Weight: 1,
			},
			{
				Name: "tpch", Dataset: shift.bench.Dataset, Design: shift.deployment.Design,
				Store: shift.deployment.Store, Optimizer: shift.opt,
				Templates: tpchTemplates, Weight: 2,
				// A small window keeps the planner focused on the most
				// recent traffic — a wide one dilutes the shifted
				// templates' reward with remembered pre-shift queries. TopK
				// spans every TPC-H table: under frequent wall-clock cycles
				// the staleness trend converges quickly, leaving tiny
				// dimension tables' constant missing-cut score to crowd out
				// the fact tables at a small TopK; the planner's reward
				// function rejects unprofitable tables anyway.
				Reorg: &reorgd.Config{
					Budget:          sc.Budget,
					Interval:        sc.Interval,
					Window:          64,
					MinCycleQueries: 32,
					TopK:            8,
					Q:               500,
					W:               100,
				},
			},
			{
				Name: "tpcds", Dataset: tds.Dataset, Design: dtds.Design,
				Store: dtds.Store, Optimizer: dtds.Optimizer,
				Templates: tds.Workload.Queries, Weight: 1,
			},
		},
	})
	if err != nil {
		return nil, err
	}
	return dep, nil
}
