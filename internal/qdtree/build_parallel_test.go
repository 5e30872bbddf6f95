package qdtree

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"mto/internal/datagen"
	"mto/internal/induce"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// benchFixture is one bench's build inputs for a single table: the sampled
// build table, routing units, and candidate cuts (simple + induced),
// assembled the way core.Optimize does.
type benchFixture struct {
	tbl     *relation.Table
	queries []BuildQuery
	cuts    []Cut
	cfg     Config
}

// ssbFixture generates a small SSB instance and the lineorder build inputs.
func ssbFixture(t testing.TB, sf float64, blockSize int) benchFixture {
	t.Helper()
	ds := datagen.SSB(datagen.SSBConfig{ScaleFactor: sf, Seed: 1})
	w := datagen.SSBWorkload(2)
	return fixtureFor(t, ds, w, "lineorder", blockSize)
}

// tpchFixture generates a small TPC-H instance and the lineitem build inputs.
func tpchFixture(t testing.TB, sf float64, blockSize int) benchFixture {
	t.Helper()
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: sf, Seed: 1})
	w := datagen.TPCHWorkload(4, 2)
	return fixtureFor(t, ds, w, "lineitem", blockSize)
}

func fixtureFor(t testing.TB, ds *relation.Dataset, w *workload.Workload, table string, blockSize int) benchFixture {
	t.Helper()
	unique := func(tbl, col string) bool {
		tb := ds.Table(tbl)
		return tb != nil && tb.Schema().IsUnique(col)
	}
	var cuts []Cut
	for _, p := range workload.SimplePredicates(w)[table] {
		cuts = append(cuts, NewSimpleCut(p))
	}
	for _, ip := range induce.FromWorkload(w, unique, 4)[table] {
		if err := induce.EvaluateAll(ds, []*induce.Predicate{ip}, 1); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, NewInducedCut(ip))
	}
	if len(cuts) == 0 {
		t.Fatalf("fixture for %s produced no candidate cuts", table)
	}
	return benchFixture{
		tbl:     ds.Table(table),
		queries: BuildQueries(w, table),
		cuts:    cuts,
		cfg:     Config{Table: table, BlockSize: blockSize, SampleRate: 1},
	}
}

// treeJSON renders a tree for byte-level comparison.
func treeJSON(t *testing.T, tree *Tree) string {
	t.Helper()
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkBuildIdentity builds the fixture sequentially, in parallel, and with
// the seed reference, and requires byte-identical trees.
func checkBuildIdentity(t *testing.T, fx benchFixture) {
	t.Helper()
	seqCfg := fx.cfg
	seqCfg.Parallelism = 1
	seq, err := Build(fx.tbl, fx.queries, fx.cuts, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumLeaves() < 2 {
		t.Fatalf("fixture too small to split: %d leaves", seq.NumLeaves())
	}
	seqJSON := treeJSON(t, seq)

	parCfg := fx.cfg
	parCfg.Parallelism = 8
	par, err := Build(fx.tbl, fx.queries, fx.cuts, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := treeJSON(t, par); got != seqJSON {
		t.Errorf("parallel build differs from sequential:\nseq %d bytes, par %d bytes", len(seqJSON), len(got))
	}

	ref, err := seedBuild(fx.tbl, fx.queries, fx.cuts, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := treeJSON(t, ref); got != seqJSON {
		t.Errorf("bitset build differs from seed reference:\nseed %d bytes, new %d bytes", len(got), len(seqJSON))
	}

	// Record assignment: sequential vs parallel groups must match
	// element-wise, including nil-ness of empty groups.
	seqGroups := seq.AssignRecordsParallel(fx.tbl, 1)
	parGroups := seq.AssignRecordsParallel(fx.tbl, 8)
	if len(seqGroups) != len(parGroups) {
		t.Fatalf("group count %d != %d", len(parGroups), len(seqGroups))
	}
	for li := range seqGroups {
		if (seqGroups[li] == nil) != (parGroups[li] == nil) {
			t.Fatalf("leaf %d nil-ness differs", li)
		}
		if len(seqGroups[li]) != len(parGroups[li]) {
			t.Fatalf("leaf %d size %d != %d", li, len(parGroups[li]), len(seqGroups[li]))
		}
		for j := range seqGroups[li] {
			if seqGroups[li][j] != parGroups[li][j] {
				t.Fatalf("leaf %d row %d: %d != %d", li, j, parGroups[li][j], seqGroups[li][j])
			}
		}
	}
}

func TestParallelBuildIdenticalSSB(t *testing.T) {
	checkBuildIdentity(t, ssbFixture(t, 0.002, 250))
}

func TestParallelBuildIdenticalTPCH(t *testing.T) {
	checkBuildIdentity(t, tpchFixture(t, 0.002, 250))
}

// TestParallelAssignRecordsChunked exercises the chunked routing path (a
// table larger than minRouteChunk per worker) against the sequential one.
func TestParallelAssignRecordsChunked(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	fx := ssbFixture(t, 0.005, 500) // lineorder ~30k rows > 2×minRouteChunk
	cfg := fx.cfg
	cfg.Parallelism = 1
	tree, err := Build(fx.tbl, fx.queries, fx.cuts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := tree.AssignRecordsParallel(fx.tbl, 1)
	par := tree.AssignRecordsParallel(fx.tbl, 4)
	if len(seq) != len(par) {
		t.Fatalf("group count %d != %d", len(par), len(seq))
	}
	for li := range seq {
		if (seq[li] == nil) != (par[li] == nil) || len(seq[li]) != len(par[li]) {
			t.Fatalf("leaf %d differs", li)
		}
		for j := range seq[li] {
			if seq[li][j] != par[li][j] {
				t.Fatalf("leaf %d row %d: %d != %d", li, j, par[li][j], seq[li][j])
			}
		}
	}
}

// countingCut wraps a cut and counts FillMask calls, so tests can assert
// the membership precompute was skipped entirely.
type countingCut struct {
	Cut
	compiles atomic.Int64
}

func (c *countingCut) FillMask(tbl *relation.Table, rows []int32, mask []uint64, g *predicate.Gather) {
	c.compiles.Add(1)
	c.Cut.FillMask(tbl, rows, mask, g)
}

// TestNoPrecomputeWhenRootCannotSplit is the regression test for the
// pathological seed behavior: a build that can never split (table smaller
// than two blocks, or an empty training workload) must not pay the
// O(cuts × rows) membership precompute.
func TestNoPrecomputeWhenRootCannotSplit(t *testing.T) {
	tab := singleTable(t, 500, 11)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(100))
	cut := &countingCut{Cut: NewSimpleCut(px)}
	w := workload.NewWorkload(singleTableQuery("q1", px))

	// 500 rows < 2 × 1000-row blocks: the root can never split.
	tree, err := Build(tab, BuildQueries(w, "T"), []Cut{cut}, Config{
		Table: "T", BlockSize: 1000, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Fatalf("sub-two-block table split into %d leaves", tree.NumLeaves())
	}
	if got := cut.compiles.Load(); got != 0 {
		t.Errorf("precompute ran %d FillMask calls for an unsplittable root", got)
	}

	// An empty training workload can never score a cut either.
	tree, err = Build(tab, nil, []Cut{cut}, Config{
		Table: "T", BlockSize: 10, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 || cut.compiles.Load() != 0 {
		t.Errorf("empty workload: leaves=%d compiles=%d", tree.NumLeaves(), cut.compiles.Load())
	}

	// Sanity: a splittable build does precompute.
	tree, err = Build(tab, BuildQueries(w, "T"), []Cut{cut}, Config{
		Table: "T", BlockSize: 100, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cut.compiles.Load() == 0 {
		t.Error("splittable build skipped the precompute")
	}
}
