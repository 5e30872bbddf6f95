package experiments

import (
	"fmt"
	"math"
	"time"

	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/live"
	"mto/internal/reorgd"
	"mto/internal/workload"
)

// ReorgScenario parameterizes the incremental-reorganization experiment:
// MTO is trained on TPC-H templates 1–11, then observes a drift stream that
// cross-fades into templates 12–22 while the daemon reorganizes under a
// per-cycle block-write budget.
type ReorgScenario struct {
	// Cycles is the number of daemon cycles; QueriesPerCycle queries from
	// the drift stream run between consecutive Step calls.
	Cycles          int
	QueriesPerCycle int
	// Budget caps physical blocks written per cycle (0 = unlimited).
	Budget int
	// Epsilon/Seed configure the daemon's bandit (0 epsilon = UCB1).
	Epsilon float64
	Seed    int64
	// Q/W is the reorganization reward horizon (defaults 500/100, matching
	// the Fig. 14a partial-reorg scenario).
	Q, W float64
	// Interval is plumbed into the daemon config; the harness drives
	// cycles explicitly via Step, so it only matters for a live Run.
	Interval time.Duration
	// Daemon disables the daemon when false: the result then compares only
	// the stale layout against full re-optimization (the CI smoke baseline).
	Daemon bool
}

func (rc ReorgScenario) withDefaults() ReorgScenario {
	if rc.Cycles == 0 {
		rc.Cycles = 8
	}
	if rc.QueriesPerCycle == 0 {
		rc.QueriesPerCycle = 32
	}
	if rc.Q == 0 {
		rc.Q = 500
	}
	if rc.W == 0 {
		rc.W = 100
	}
	return rc
}

// ReorgResult is the experiment outcome, serialized to BENCH_reorg.json.
// All fields are deterministic at a fixed seed (no wall-clock).
type ReorgResult struct {
	Bench           string `json:"bench"`
	Cycles          int    `json:"cycles"`
	QueriesPerCycle int    `json:"queries_per_cycle"`
	Budget          int    `json:"budget"`
	DaemonEnabled   bool   `json:"daemon_enabled"`
	// StaleBlocksPerQuery is the shifted workload's mean blocks read on the
	// never-reorganized layout; FullBlocksPerQuery after a full (q=∞)
	// re-optimization; DaemonBlocksPerQuery after the daemon's budgeted
	// incremental cycles.
	StaleBlocksPerQuery  float64 `json:"stale_blocks_per_query"`
	FullBlocksPerQuery   float64 `json:"full_blocks_per_query"`
	DaemonBlocksPerQuery float64 `json:"daemon_blocks_per_query,omitempty"`
	// Recovery is the fraction of the stale→full blocks-read gap the daemon
	// recovered: (stale − daemon) / (stale − full), clamped to [0, 1].
	Recovery float64 `json:"recovery,omitempty"`
	// MaxCycleWrites / TotalWrites account the daemon's physical writes;
	// FullWrites is the full re-optimization's write cost for comparison.
	MaxCycleWrites int `json:"max_cycle_writes,omitempty"`
	TotalWrites    int `json:"total_writes,omitempty"`
	FullWrites     int `json:"full_writes"`
	// Trace is the daemon's per-cycle record.
	Trace []reorgd.CycleStats `json:"trace,omitempty"`

	// Final daemon-run state, for identity checks (not serialized); Close
	// releases it.
	deployment *Deployment
	bench      *Bench
	observed   *workload.Workload
}

// blocksPerQuery replays the workload and returns mean blocks read.
func blocksPerQuery(d *Deployment, b *Bench, w *workload.Workload, parallel int) (float64, error) {
	eng := engine.New(d.Store, d.Design, b.Dataset, engine.DefaultOptions())
	wr, err := engine.RunWorkload(eng, w.Queries, engine.RunOptions{Parallelism: parallel})
	if err != nil {
		return 0, err
	}
	return float64(wr.Blocks) / float64(w.Len()), nil
}

// ReorgDaemon runs the incremental-reorganization experiment (§5.1 daemon
// deployment): three independent MTO deployments trained on TPC-H templates
// 1–11 face templates 12–22 — one left stale, one fully re-optimized
// (q = ∞), and one driven by the reorgd daemon over a seeded drift stream
// under the per-cycle write budget.
func ReorgDaemon(s Scale, rc ReorgScenario) (_ *ReorgResult, err error) {
	rc = rc.withDefaults()
	res := &ReorgResult{
		Bench:           "TPC-H shift 1-11 → 12-22",
		Cycles:          rc.Cycles,
		QueriesPerCycle: rc.QueriesPerCycle,
		Budget:          rc.Budget,
		DaemonEnabled:   rc.Daemon,
	}
	defer func() {
		if err != nil {
			res.Close()
		}
	}()

	// Stale: never reorganized.
	stale, err := newShiftSetup(s)
	if err != nil {
		return nil, err
	}
	defer stale.deployment.Close()
	res.StaleBlocksPerQuery, err = blocksPerQuery(stale.deployment, stale.bench, stale.observed, s.Parallel)
	if err != nil {
		return nil, err
	}

	// Full re-optimization: q = ∞ rewrites every subtree worth anything.
	full, err := newShiftSetup(s)
	if err != nil {
		return nil, err
	}
	defer full.deployment.Close()
	plans, err := full.opt.PlanReorg(full.observed, core.ReorgConfig{Q: math.Inf(1), W: rc.W}, full.deployment.Design)
	if err != nil {
		return nil, err
	}
	fstats, err := full.opt.ApplyReorg(plans, full.deployment.Design, full.deployment.Store)
	if err != nil {
		return nil, err
	}
	res.FullWrites = fstats.BlocksWritten
	res.FullBlocksPerQuery, err = blocksPerQuery(full.deployment, full.bench, full.observed, s.Parallel)
	if err != nil {
		return nil, err
	}

	if !rc.Daemon {
		return res, nil
	}

	// Daemon: drift stream cross-fading from the trained workload into the
	// shifted one, a budgeted incremental cycle every QueriesPerCycle
	// executions.
	setup, err := newShiftSetup(s)
	if err != nil {
		return nil, err
	}
	res.deployment, res.bench, res.observed = setup.deployment, setup.bench, setup.observed
	// The third phase repeats the shifted pool so the stream settles into
	// it for the last third instead of only reaching it at the final query.
	stream := workload.Drift(
		[][]*workload.Query{setup.bench.Workload.Queries, setup.observed.Queries, setup.observed.Queries},
		rc.Cycles*rc.QueriesPerCycle, rc.Seed+3)
	in := live.New(setup.opt, setup.deployment.Design, setup.deployment.Store, setup.bench.Dataset, engine.DefaultOptions(), nil)
	d := reorgd.New(in, reorgd.Config{
		Budget:          rc.Budget,
		Interval:        rc.Interval,
		Window:          rc.QueriesPerCycle,
		MinCycleQueries: rc.QueriesPerCycle / 2,
		TopK:            3,
		Epsilon:         rc.Epsilon,
		Seed:            rc.Seed,
		Q:               rc.Q,
		W:               rc.W,
	})
	for c := 0; c < rc.Cycles; c++ {
		for i := 0; i < rc.QueriesPerCycle; i++ {
			q := stream[c*rc.QueriesPerCycle+i]
			r, err := in.Execute(q)
			if err != nil {
				return nil, err
			}
			tb := make(map[string]int, len(r.PerTable))
			for name, ta := range r.PerTable {
				tb[name] = ta.BlocksRead
			}
			d.Observe(q, tb)
		}
		if _, err := d.Step(); err != nil {
			return nil, err
		}
	}
	res.Trace = d.Trace()
	for _, cs := range res.Trace {
		res.TotalWrites += cs.BlocksWritten
		if cs.BlocksWritten > res.MaxCycleWrites {
			res.MaxCycleWrites = cs.BlocksWritten
		}
	}
	res.DaemonBlocksPerQuery, err = blocksPerQuery(setup.deployment, setup.bench, setup.observed, s.Parallel)
	if err != nil {
		return nil, err
	}

	gap := res.StaleBlocksPerQuery - res.FullBlocksPerQuery
	if gap <= 0 {
		// Full re-optimization found nothing; the daemon trivially recovers
		// everything as long as it did no harm.
		if res.DaemonBlocksPerQuery <= res.StaleBlocksPerQuery {
			res.Recovery = 1
		}
	} else {
		res.Recovery = (res.StaleBlocksPerQuery - res.DaemonBlocksPerQuery) / gap
		res.Recovery = math.Max(0, math.Min(1, res.Recovery))
	}
	return res, nil
}

// Close releases the daemon run's deployment, when the result holds one.
func (r *ReorgResult) Close() error {
	if r.deployment == nil {
		return nil
	}
	return r.deployment.Close()
}

// PrintReorg renders the experiment result for the CLI.
func (r *ReorgResult) String() string {
	s := fmt.Sprintf("Incremental reorganization — %s\n", r.Bench)
	s += fmt.Sprintf("  stale layout:      %8.2f blocks/query\n", r.StaleBlocksPerQuery)
	s += fmt.Sprintf("  full reorg (q=∞):  %8.2f blocks/query (%d blocks written)\n", r.FullBlocksPerQuery, r.FullWrites)
	if r.DaemonEnabled {
		s += fmt.Sprintf("  daemon:            %8.2f blocks/query (%d cycles × budget %d; max/cycle %d, total %d)\n",
			r.DaemonBlocksPerQuery, r.Cycles, r.Budget, r.MaxCycleWrites, r.TotalWrites)
		s += fmt.Sprintf("  recovery:          %8.1f%% of the stale→full gap\n", 100*r.Recovery)
		for _, cs := range r.Trace {
			line := fmt.Sprintf("    cycle %d seq=%d %s", cs.Cycle, cs.Seq, cs.Action)
			if cs.PlannedChoices > 0 || cs.InstalledChoices > 0 {
				line += fmt.Sprintf(" choices=%d/%d", cs.InstalledChoices, cs.PlannedChoices)
			}
			if cs.Action == "reorg" {
				line += fmt.Sprintf(" tables=%v arm=%s wrote=%d moved=%d", cs.Tables, cs.Arm, cs.BlocksWritten, cs.RowsMoved)
			}
			if cs.Reward != nil {
				line += fmt.Sprintf(" reward(%s)=%+.3f", cs.RewardArm, *cs.Reward)
			}
			s += line + "\n"
		}
	}
	return s
}
