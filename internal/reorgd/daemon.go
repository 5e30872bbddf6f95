// Package reorgd implements the adaptive incremental reorganization
// daemon: a long-running loop that watches a rolling query log, scores
// qd-tree staleness per table, and each cycle re-optimizes only the
// highest-scoring subtrees under a physical block-write budget (observe →
// score → plan → migrate). Each planning cycle offers §5.1's reorganizer
// one candidate set per table — the window's cuts, the join-induced cuts
// and the current tree's cuts — and core.PlanReorg keeps the max-reward
// subtrees from it. The daemon drives one live.Instance: it stages each
// install beside the instance's queries and commits it through
// Instance.Reorganize, which bumps the generation and rebuilds the engine
// under the instance's write lock.
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
	// Seed is ignored: the daemon has no randomness, so a trace is a
	// function of its observations alone. It stays only because the
	// benchmark harness (bench/workloads.go) still sets it.
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
	// "no-plan" (no table stale enough, or no positive-reward subtree), or
	// "reorg".
	Action string `json:"action"`
	// Scores is the per-table staleness at planning time.
	Scores map[string]float64 `json:"scores,omitempty"`
	// Tables lists the tables selected for re-optimization.
	Tables []string `json:"tables,omitempty"`
	// PlannedChoices counts subtree choices before budget trimming,
	// InstalledChoices after; the difference is what the budget deferred.
	PlannedChoices   int `json:"planned_choices,omitempty"`
	InstalledChoices int `json:"installed_choices,omitempty"`
	// BlocksWritten / RowsMoved are the install's physical cost.
	BlocksWritten int `json:"blocks_written,omitempty"`
	RowsMoved     int `json:"rows_moved,omitempty"`
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
	longAvg    map[string]float64
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

// treeCuts collects each selected table's current cuts as extra rebuild
// candidates, so a rebuild can keep old splits that still discriminate.
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

// Step runs one daemon cycle: score staleness and — when warranted — plan,
// trim to budget, stage a partial reorganization and commit it through the
// instance, which swaps in the new generation and engine. The returned
// stats are also appended to Trace.
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

	// One plan from every candidate: the window's cuts, the join-induced
	// cuts (a no-op when the optimizer was built without induction) and
	// the current trees' cuts. PlanReorg keeps the max-reward subtrees.
	rc := core.ReorgConfig{Q: d.cfg.Q, W: d.cfg.W, Tables: tables, ExtraCuts: d.treeCuts(tables)}
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
		// Nothing worth rewriting under this horizon/budget; stand down.
		cs.Action = "no-plan"
		d.lastActSeq = d.log.Seq()
		return cs, nil
	}

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
