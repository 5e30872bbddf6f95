package experiments

import (
	"encoding/json"
	"math"
	"testing"

	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/live"
	"mto/internal/reorgd"
	"mto/internal/workload"
)

// The drift scenario the reorg daemon tests drive: MTO trained on TPC-H
// templates 1–11 observes a stream that cross-fades into 12–22, with one
// budgeted daemon cycle every daemonQueriesPerCycle executions.
const (
	daemonCycles          = 8
	daemonQueriesPerCycle = 22
	daemonBudget          = 80
)

// runDaemon drives reorgd.Daemon over a fresh shift setup and returns the
// reorganized setup (closed at test end) and the daemon's cycle trace.
func runDaemon(t *testing.T, s Scale) (*shiftSetup, []reorgd.CycleStats) {
	t.Helper()
	setup := newTestShiftSetup(t, s)
	// The third phase repeats the shifted pool so the stream settles into
	// it for the last third instead of only reaching it at the final query.
	stream := workload.Drift(
		[][]*workload.Query{setup.bench.Workload.Queries, setup.observed.Queries, setup.observed.Queries},
		daemonCycles*daemonQueriesPerCycle, s.Seed+3)
	in := live.New(setup.opt, setup.deployment.Design, setup.deployment.Store, setup.bench.Dataset, engine.DefaultOptions(), nil)
	d := reorgd.New(in, reorgd.Config{
		Budget:          daemonBudget,
		Window:          daemonQueriesPerCycle,
		MinCycleQueries: daemonQueriesPerCycle / 2,
		TopK:            3,
		Seed:            s.Seed,
		Q:               500,
		W:               100,
	})
	for i, q := range stream {
		r, err := in.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		tb := make(map[string]int, len(r.PerTable))
		for name, ta := range r.PerTable {
			tb[name] = ta.BlocksRead
		}
		d.Observe(q, tb)
		if (i+1)%daemonQueriesPerCycle == 0 {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return setup, d.Trace()
}

func newTestShiftSetup(t *testing.T, s Scale) *shiftSetup {
	t.Helper()
	setup, err := newShiftSetup(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { setup.deployment.Close() })
	return setup
}

// setupEngine is an engine over the setup's current layout.
func setupEngine(setup *shiftSetup) *engine.Engine {
	return engine.New(setup.deployment.Store, setup.deployment.Design, setup.bench.Dataset, engine.DefaultOptions())
}

// blocksPerQuery replays the shifted workload and returns mean blocks read.
func blocksPerQuery(t *testing.T, setup *shiftSetup) float64 {
	t.Helper()
	wr, err := engine.RunWorkload(setupEngine(setup), setup.observed.Queries, engine.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return float64(wr.Blocks) / float64(setup.observed.Len())
}

// invariantAliases returns the aliases whose SurvivingRows are
// layout-invariant: every alias except the key-feeding side of an
// anti-semi join, whose count depends on how many of its rows were
// scanned (see the engine's join-type invariance test).
func invariantAliases(q *workload.Query) map[string]bool {
	out := map[string]bool{}
	for _, r := range q.Tables {
		name := r.Alias
		if name == "" {
			name = r.Table
		}
		out[name] = true
	}
	for _, j := range q.Joins {
		switch j.Type {
		case workload.LeftAntiSemiJoin:
			delete(out, j.Right)
		case workload.RightAntiSemiJoin:
			delete(out, j.Left)
		}
	}
	return out
}

// TestReorgDaemonRecovery: under its per-cycle write budget the daemon must
// reorganize at least once and recover at least 70% of the blocks-read gap
// between the stale layout and a full (q = ∞) re-optimization.
func TestReorgDaemonRecovery(t *testing.T) {
	s := testScale()
	stale := newTestShiftSetup(t, s)
	staleBlocks := blocksPerQuery(t, stale)

	full := newTestShiftSetup(t, s)
	plans, err := full.opt.PlanReorg(full.observed, core.ReorgConfig{Q: math.Inf(1), W: 100}, full.deployment.Design)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.opt.ApplyReorg(plans, full.deployment.Design, full.deployment.Store); err != nil {
		t.Fatal(err)
	}
	fullBlocks := blocksPerQuery(t, full)

	daemon, trace := runDaemon(t, s)
	daemonBlocks := blocksPerQuery(t, daemon)
	reorgs := 0
	for _, cs := range trace {
		if cs.BlocksWritten > daemonBudget {
			t.Errorf("cycle %d wrote %d blocks, budget %d", cs.Cycle, cs.BlocksWritten, daemonBudget)
		}
		if cs.Action == "reorg" {
			reorgs++
		}
	}
	if reorgs == 0 {
		t.Errorf("daemon never reorganized: %+v", trace)
	}
	t.Logf("stale %.2f full %.2f daemon %.2f blocks/query", staleBlocks, fullBlocks, daemonBlocks)
	if gap := staleBlocks - fullBlocks; gap <= 0 {
		t.Errorf("full re-optimization found no gap at this scale (stale %.2f, full %.2f)", staleBlocks, fullBlocks)
	} else if recovery := (staleBlocks - daemonBlocks) / gap; recovery < 0.7 {
		t.Errorf("recovery = %.2f of the stale→full gap, want ≥ 0.7", recovery)
	}
}

// TestReorgDaemonIdentity: neither the daemon's incrementally reorganized
// layout nor a direct ApplyReorgPartial of the full observed plan may change
// the rows that survive: reorganization changes which blocks are read, never
// the answer.
func TestReorgDaemonIdentity(t *testing.T) {
	s := testScale()
	stale := newTestShiftSetup(t, s)
	daemon, _ := runDaemon(t, s)

	direct := newTestShiftSetup(t, s)
	plans, err := direct.opt.PlanReorg(direct.observed, core.ReorgConfig{Q: 500, W: 100}, direct.deployment.Design)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.opt.ApplyReorgPartial(plans, direct.deployment.Design, direct.deployment.Store); err != nil {
		t.Fatal(err)
	}
	staleEng := setupEngine(stale)
	reorged := map[string]*engine.Engine{"daemon": setupEngine(daemon), "ApplyReorgPartial": setupEngine(direct)}
	for _, q := range stale.observed.Queries {
		want, err := staleEng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range reorged {
			got, err := eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			for alias := range invariantAliases(q) {
				if got.SurvivingRows[alias] != want.SurvivingRows[alias] {
					t.Errorf("%s, query %s alias %s: %d survivors, stale layout %d",
						name, q.ID, alias, got.SurvivingRows[alias], want.SurvivingRows[alias])
				}
			}
		}
	}
}

// TestReorgDaemonDeterministic: at a fixed seed the daemon's cycle trace
// serializes byte-identically across runs.
func TestReorgDaemonDeterministic(t *testing.T) {
	_, t1 := runDaemon(t, testScale())
	_, t2 := runDaemon(t, testScale())
	j1, err := json.Marshal(t1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(t2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("runs differ:\n%s\n%s", j1, j2)
	}
}
