package experiments

import (
	"encoding/json"
	"testing"

	"mto/internal/core"
	"mto/internal/engine"
	"mto/internal/workload"
)

func reorgScenario() ReorgScenario {
	return ReorgScenario{
		Cycles:          8,
		QueriesPerCycle: 22,
		Budget:          80,
		Seed:            1,
		Daemon:          true,
	}
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

// TestReorgDaemonRecovery: the daemon must recover at least 70% of the
// blocks-read gap between the stale layout and a full re-optimization,
// while never exceeding its per-cycle write budget.
func TestReorgDaemonRecovery(t *testing.T) {
	res, err := ReorgDaemon(testScale(), reorgScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	t.Logf("stale %.2f full %.2f daemon %.2f recovery %.2f (writes max %d total %d, full %d)",
		res.StaleBlocksPerQuery, res.FullBlocksPerQuery, res.DaemonBlocksPerQuery,
		res.Recovery, res.MaxCycleWrites, res.TotalWrites, res.FullWrites)
	if res.StaleBlocksPerQuery <= res.FullBlocksPerQuery {
		t.Skipf("full re-optimization found no gap at this scale (stale %.2f, full %.2f)",
			res.StaleBlocksPerQuery, res.FullBlocksPerQuery)
	}
	if res.Recovery < 0.7 {
		t.Errorf("recovery = %.2f, want ≥ 0.7\n%s", res.Recovery, res)
	}
	if res.MaxCycleWrites > res.Budget {
		t.Errorf("cycle wrote %d blocks, budget %d", res.MaxCycleWrites, res.Budget)
	}
	reorgs := 0
	for _, cs := range res.Trace {
		if cs.Action == "reorg" {
			reorgs++
		}
	}
	if reorgs == 0 {
		t.Errorf("daemon never reorganized\n%s", res)
	}
}

// TestReorgDaemonDeterministic: at a fixed seed the whole experiment —
// cycle trace included — must serialize byte-identically across repeats.
func TestReorgDaemonDeterministic(t *testing.T) {
	r1, err := ReorgDaemon(testScale(), reorgScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := ReorgDaemon(testScale(), reorgScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	j1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("runs differ:\n%s\n%s", j1, j2)
	}
}

// TestReorgDaemonOff: with the daemon disabled the result still reports the
// stale/full comparison and no trace.
func TestReorgDaemonOff(t *testing.T) {
	rc := reorgScenario()
	rc.Daemon = false
	res, err := ReorgDaemon(testScale(), rc)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.DaemonEnabled || len(res.Trace) != 0 || res.TotalWrites != 0 {
		t.Errorf("daemon-off result carries daemon fields: %+v", res)
	}
	if res.StaleBlocksPerQuery == 0 || res.FullBlocksPerQuery == 0 {
		t.Errorf("missing baselines: %+v", res)
	}
}

// TestReorgDaemonIdentity: the daemon's incrementally reorganized layout
// must return exactly the same query answers as the untouched layout —
// reorganization may only change which blocks are read, never the rows
// that survive. Also pins the direct ApplyReorgPartial path on the full
// observed plan (the strongest single perturbation).
func TestReorgDaemonIdentity(t *testing.T) {
	s := testScale()
	stale, err := newShiftSetup(s)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.deployment.Close()
	engStale := engine.New(stale.deployment.Store, stale.deployment.Design, stale.bench.Dataset, engine.DefaultOptions())

	res, err := ReorgDaemon(s, reorgScenario())
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.deployment == nil {
		t.Fatal("daemon result carries no deployment")
	}

	direct, err := newShiftSetup(s)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.deployment.Close()
	plans, err := direct.opt.PlanReorg(direct.observed, core.ReorgConfig{Q: 500, W: 100}, direct.deployment.Design)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.opt.ApplyReorgPartial(plans, direct.deployment.Design, direct.deployment.Store); err != nil {
		t.Fatal(err)
	}

	reorged := []*engine.Engine{
		engine.New(res.deployment.Store, res.deployment.Design, res.bench.Dataset, engine.DefaultOptions()),
		engine.New(direct.deployment.Store, direct.deployment.Design, direct.bench.Dataset, engine.DefaultOptions()),
	}
	for _, q := range stale.observed.Queries {
		a, err := engStale.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		inv := invariantAliases(q)
		for ei, eng := range reorged {
			b, err := eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			for alias := range inv {
				if a.SurvivingRows[alias] != b.SurvivingRows[alias] {
					t.Errorf("engine %d, query %s alias %s: survivors differ: stale %d vs reorganized %d",
						ei, q.ID, alias, a.SurvivingRows[alias], b.SurvivingRows[alias])
				}
			}
		}
	}
}
