package reorgd

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mto/internal/core"
	"mto/internal/live"
	"mto/internal/qdtree"
	"mto/internal/workload"
)

// Arm names. All three plan from the rolling window's observed workload;
// they differ in which candidate cuts the rebuilt subtrees may use. The
// bandit pulls unpulled arms in index order and is seeded with the richest
// arm first: join-induced pruning is MTO's main lever, so losing it on the
// very first install (before the reward signal exists) routinely makes the
// layout worse than leaving it stale.
//
//   - "window": only cuts extracted from the window's own predicates —
//     the cheapest arm.
//   - "window+tree": additionally offers the current tree's cuts, so a
//     rebuild can retain old splits that still discriminate.
//   - "window+induced": allows join-induced candidate cuts (a full
//     evaluation pass over the dataset; only effective when the optimizer
//     was built with join induction).
const (
	ArmWindow        = "window"
	ArmWindowTree    = "window+tree"
	ArmWindowInduced = "window+induced"
)

// Config parameterizes the daemon. Zero values select the documented
// defaults.
type Config struct {
	// Budget caps the physical blocks written per reorganization cycle;
	// plans are trimmed (whole subtree choices dropped, best
	// reward-per-write first) to fit. 0 means unlimited.
	Budget int
	// Interval is Run's cycle period (default 1s; Step ignores it).
	Interval time.Duration
	// Window is the rolling query-log capacity (default 256).
	Window int
	// MinCycleQueries is the minimum number of new executions since the
	// last acting cycle before the daemon will plan again (default 16).
	MinCycleQueries int
	// TopK caps how many tables are re-optimized per cycle (default 2).
	TopK int
	// ScoreThreshold is the minimum staleness score for a table to be
	// considered (default 0.05).
	ScoreThreshold float64
	// Decay is the long-horizon EWMA decay for per-table blocks/query
	// (default 0.8): long ← Decay·long + (1−Decay)·short each cycle.
	Decay float64
	// Epsilon > 0 switches the bandit from UCB1 to seeded epsilon-greedy.
	Epsilon float64
	// Seed seeds the bandit's randomness (epsilon-greedy only; UCB1 is
	// fully deterministic regardless).
	Seed int64
	// Q and W are the §5.1.2 reward horizon passed to PlanReorg: Q future
	// queries expected before the next shift, block write/read cost ratio
	// W (defaults 1000 and 100).
	Q, W float64
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.Window == 0 {
		c.Window = 256
	}
	if c.MinCycleQueries == 0 {
		c.MinCycleQueries = 16
	}
	if c.TopK == 0 {
		c.TopK = 2
	}
	if c.ScoreThreshold == 0 {
		c.ScoreThreshold = 0.05
	}
	if c.Decay == 0 {
		c.Decay = 0.8
	}
	if c.Q == 0 {
		c.Q = 1000
	}
	if c.W == 0 {
		c.W = 100
	}
	return c
}

// CycleStats is one Step's outcome. It deliberately contains no wall-clock
// fields so a fixed-seed run's trace is byte-identical across repeats.
type CycleStats struct {
	// Cycle is the 0-based cycle number.
	Cycle int `json:"cycle"`
	// Seq is the query-log sequence number when the cycle ran.
	Seq uint64 `json:"seq"`
	// Action is what the cycle did: "idle" (too few new queries),
	// "await-eval" (previous install not yet evaluated), "no-plan" (no
	// table stale enough, or no positive-reward subtree), or "reorg".
	Action string `json:"action"`
	// Scores is the per-table staleness at planning time.
	Scores map[string]float64 `json:"scores,omitempty"`
	// Tables lists the tables selected for re-optimization.
	Tables []string `json:"tables,omitempty"`
	// Arm is the bandit arm used for a "reorg" action.
	Arm string `json:"arm,omitempty"`
	// PlannedChoices counts subtree choices before budget trimming,
	// InstalledChoices after; the difference is what the budget deferred.
	PlannedChoices   int `json:"planned_choices,omitempty"`
	InstalledChoices int `json:"installed_choices,omitempty"`
	// BlocksWritten / RowsMoved are the install's physical cost.
	BlocksWritten int `json:"blocks_written,omitempty"`
	RowsMoved     int `json:"rows_moved,omitempty"`
	// Reward reports a previous install's evaluation resolved this cycle:
	// the relative blocks-read improvement credited to RewardArm.
	Reward    *float64 `json:"reward,omitempty"`
	RewardArm string   `json:"reward_arm,omitempty"`
}

// pendingEval is an installed-but-not-yet-evaluated reorganization.
type pendingEval struct {
	arm        int
	tables     map[string]bool
	preAvg     float64
	installSeq uint64
}

// Daemon is the incremental reorganizer. Observe is safe to call from any
// number of goroutines concurrently with Run or Step: observations land in
// a small inbox under their own mutex (so an executing query never blocks
// behind a planning cycle) and are drained into the rolling log when the
// next cycle starts. Step/Run serialize against each other and against
// Trace through the daemon mutex.
type Daemon struct {
	cfg  Config
	live *live.Instance
	mto  *core.Optimizer

	// obsMu guards inbox only. Observe's critical section is one append,
	// so it stays cheap even while a Step holds mu through a multi-second
	// plan, stage and commit. Never acquire mu while holding obsMu.
	obsMu sync.Mutex
	inbox []observation

	// mu guards everything below.
	mu         sync.Mutex
	log        *workload.RollingLog
	bandit     *Bandit
	longAvg    map[string]float64
	pending    *pendingEval
	lastActSeq uint64
	cycle      int
	trace      []CycleStats
}

// observation is one Observe call buffered in the inbox.
type observation struct {
	q           *workload.Query
	tableBlocks map[string]int
}

// New returns a daemon reorganizing the instance's layout: it plans
// through the instance's optimizer and commits through its Reorganize, so
// every install is a generation swap of the instance. The instance must
// have an optimizer, and the daemon must be its only mutator: plans read
// its trees and design outside the instance's lock.
func New(in *live.Instance, cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:     cfg,
		live:    in,
		mto:     in.Optimizer(),
		log:     workload.NewRollingLog(cfg.Window),
		bandit:  NewBandit([]string{ArmWindowInduced, ArmWindowTree, ArmWindow}, cfg.Epsilon, cfg.Seed),
		longAvg: map[string]float64{},
	}
}

// Observe records one query execution: the query and the blocks each
// table's scan read (e.g. engine Result.PerTable[t].BlocksRead). It is
// safe from any goroutine and never blocks behind a running cycle; the
// observation becomes visible to staleness scoring at the next Step.
// tableBlocks is retained — callers must not mutate it afterwards.
func (d *Daemon) Observe(q *workload.Query, tableBlocks map[string]int) {
	d.obsMu.Lock()
	d.inbox = append(d.inbox, observation{q: q, tableBlocks: tableBlocks})
	d.obsMu.Unlock()
}

// drainInbox moves buffered observations into the rolling log in arrival
// order. Caller holds d.mu.
func (d *Daemon) drainInbox() {
	d.obsMu.Lock()
	batch := d.inbox
	d.inbox = nil
	d.obsMu.Unlock()
	for _, o := range batch {
		d.log.Append(o.q, o.tableBlocks)
	}
}

// Trace returns a copy of the per-cycle stats so far. Safe to call
// concurrently with Run/Step.
func (d *Daemon) Trace() []CycleStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]CycleStats, len(d.trace))
	copy(out, d.trace)
	return out
}

// staleness returns each observed table's staleness score: the relative
// blocks-per-query increase of the short window over the long-horizon EWMA
// (trend), plus the fraction of the window's filter columns on that table
// that no simple cut in the current tree covers (unseen hot predicates).
func (d *Daemon) staleness(win *workload.Workload) map[string]float64 {
	short := d.log.BlocksPerQuery()
	preds := workload.SimplePredicates(win)
	out := map[string]float64{}
	for _, t := range d.log.Tables() {
		score := 0.0
		if long, ok := d.longAvg[t]; ok && long > 0 {
			if rel := short[t]/long - 1; rel > 0 {
				score += rel
			}
		}
		if tree := d.mto.Tree(t); tree != nil && len(preds[t]) > 0 {
			covered := map[string]bool{}
			for _, n := range tree.Nodes() {
				if sc, ok := n.Cut.(*qdtree.SimpleCut); ok {
					sc.Pred.VisitColumns(func(c string) { covered[c] = true })
				}
			}
			total, missing := 0, 0
			seen := map[string]bool{}
			for _, p := range preds[t] {
				p.VisitColumns(func(c string) {
					if seen[c] {
						return
					}
					seen[c] = true
					total++
					if !covered[c] {
						missing++
					}
				})
			}
			if total > 0 {
				score += float64(missing) / float64(total)
			}
		}
		out[t] = score
	}
	return out
}

// avgBlocks returns the mean blocks read per execution, summed over the
// given tables, across log entries with Seq ≥ minSeq that touch at least
// one of them. ok is false when no such entry exists.
func (d *Daemon) avgBlocks(tables map[string]bool, minSeq uint64) (float64, bool) {
	sum, n := 0, 0
	for _, e := range d.log.Window() {
		if e.Seq < minSeq {
			continue
		}
		touched := false
		for t := range tables {
			if b, ok := e.TableBlocks[t]; ok {
				sum += b
				touched = true
			}
		}
		if touched {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / float64(n), true
}

// resolvePending evaluates the previous install once post-install
// executions exist, feeding the relative improvement back to the bandit.
func (d *Daemon) resolvePending(cs *CycleStats) bool {
	p := d.pending
	if p == nil {
		return true
	}
	post, ok := d.avgBlocks(p.tables, p.installSeq)
	if !ok {
		return false
	}
	reward := 0.0
	if p.preAvg > 0 {
		reward = (p.preAvg - post) / p.preAvg
	}
	d.bandit.Update(p.arm, reward)
	cs.Reward = &reward
	cs.RewardArm = d.bandit.Name(p.arm)
	d.pending = nil
	return true
}

// treeCuts collects each selected table's current cuts as extra rebuild
// candidates (the "window+tree" arm).
func (d *Daemon) treeCuts(tables []string) map[string][]qdtree.Cut {
	out := map[string][]qdtree.Cut{}
	for _, t := range tables {
		tree := d.mto.Tree(t)
		if tree == nil {
			continue
		}
		for _, n := range tree.Nodes() {
			if n.Cut != nil {
				out[t] = append(out[t], n.Cut)
			}
		}
	}
	return out
}

// Step runs one daemon cycle: evaluate the previous install if one is
// outstanding, score staleness, and — when warranted — plan, trim to
// budget, stage a partial reorganization and commit it through the
// instance, which swaps in the new generation and engine. The returned stats
// are also appended to Trace.
func (d *Daemon) Step() (CycleStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainInbox()

	cs := CycleStats{Cycle: d.cycle, Seq: d.log.Seq(), Action: "idle"}
	d.cycle++
	defer func() { d.trace = append(d.trace, cs) }()

	if d.log.Seq()-d.lastActSeq < uint64(d.cfg.MinCycleQueries) {
		return cs, nil
	}
	if !d.resolvePending(&cs) {
		cs.Action = "await-eval"
		return cs, nil
	}

	win := d.log.WindowWorkload()
	scores := d.staleness(win)
	cs.Scores = scores

	// Update the long-horizon EWMA after scoring, so the score compares
	// the fresh window against history.
	for t, s := range d.log.BlocksPerQuery() {
		if long, ok := d.longAvg[t]; ok {
			d.longAvg[t] = d.cfg.Decay*long + (1-d.cfg.Decay)*s
		} else {
			d.longAvg[t] = s
		}
	}

	type cand struct {
		table string
		score float64
	}
	var cands []cand
	for t, s := range scores {
		if s >= d.cfg.ScoreThreshold && d.mto.Tree(t) != nil {
			cands = append(cands, cand{t, s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].table < cands[j].table
	})
	if len(cands) > d.cfg.TopK {
		cands = cands[:d.cfg.TopK]
	}
	if len(cands) == 0 {
		cs.Action = "no-plan"
		d.lastActSeq = d.log.Seq()
		return cs, nil
	}
	tables := make([]string, len(cands))
	for i, c := range cands {
		tables[i] = c.table
	}
	cs.Tables = tables

	arm := d.bandit.Pick()
	cs.Arm = d.bandit.Name(arm)
	rc := core.ReorgConfig{Q: d.cfg.Q, W: d.cfg.W, Tables: tables}
	switch d.bandit.Name(arm) {
	case ArmWindow:
		rc.DisableInduction = true
	case ArmWindowTree:
		rc.DisableInduction = true
		rc.ExtraCuts = d.treeCuts(tables)
	case ArmWindowInduced:
		// Induction stays enabled (no-op when the optimizer was built
		// without it).
	}

	design, store := d.live.Design(), d.live.Store()
	plans, err := d.mto.PlanReorg(win, rc, design)
	if err != nil {
		return cs, fmt.Errorf("reorgd: plan: %w", err)
	}
	for _, p := range plans {
		cs.PlannedChoices += p.Choices()
	}
	plans, err = d.mto.TrimPlansToBudget(plans, design, store, d.cfg.Budget)
	if err != nil {
		return cs, fmt.Errorf("reorgd: trim: %w", err)
	}
	chosen := 0
	for _, p := range plans {
		chosen += p.Choices()
	}
	cs.InstalledChoices = chosen
	if chosen == 0 {
		// Nothing worth rewriting under this horizon/budget; credit the
		// arm with zero so the bandit still learns, and stand down.
		d.bandit.Update(arm, 0)
		cs.Action = "no-plan"
		d.lastActSeq = d.log.Seq()
		return cs, nil
	}

	sel := map[string]bool{}
	for _, t := range tables {
		sel[t] = true
	}
	preAvg, _ := d.avgBlocks(sel, 0)

	var staged *core.StagedReorg
	err = d.live.Reorganize(func() (*core.StagedReorg, error) {
		s, err := d.mto.StageReorg(plans, design, store, true)
		staged = s
		return s, err
	})
	if err != nil {
		step := "install"
		if staged == nil {
			step = "stage"
		}
		return cs, fmt.Errorf("reorgd: %s: %w", step, err)
	}
	cs.Action = "reorg"
	cs.BlocksWritten = staged.Stats.BlocksWritten
	cs.RowsMoved = staged.Stats.RowsMoved
	d.pending = &pendingEval{arm: arm, tables: sel, preAvg: preAvg, installSeq: d.log.Seq()}
	d.lastActSeq = d.log.Seq()
	return cs, nil
}

// Run executes Step every cfg.Interval until ctx is done, returning the
// first cycle error (or nil on cancellation).
func (d *Daemon) Run(ctx context.Context) error {
	tick := time.NewTicker(d.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if _, err := d.Step(); err != nil {
				return err
			}
		}
	}
}
