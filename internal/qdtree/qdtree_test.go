package qdtree

import (
	"math/rand"
	"strings"
	"testing"

	"mto/internal/induce"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// singleTable builds a table with two independent uniform columns.
func singleTable(t *testing.T, n int, seed int64) *relation.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := relation.NewTable(relation.MustSchema("T",
		relation.Column{Name: "x", Type: value.KindInt},
		relation.Column{Name: "y", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		tab.MustAppendRow(value.Int(int64(rng.Intn(1000))), value.Int(int64(rng.Intn(1000))))
	}
	return tab
}

func singleTableQuery(id string, p predicate.Predicate) *workload.Query {
	q := workload.NewQuery(id, workload.TableRef{Table: "T"})
	q.Filter("T", p)
	return q
}

func TestBuildSingleTable(t *testing.T) {
	tab := singleTable(t, 10000, 1)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(100)) // ~10% selective
	py := predicate.NewComparison("y", predicate.Gt, value.Int(900)) // ~10% selective
	w := workload.NewWorkload(singleTableQuery("q1", px), singleTableQuery("q2", py))

	cuts := []Cut{NewSimpleCut(px), NewSimpleCut(py)}
	tree, err := Build(tab, BuildQueries(w, "T"), cuts, Config{
		Table: "T", BlockSize: 500, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() < 2 {
		t.Fatalf("tree did not split: %d leaves", tree.NumLeaves())
	}
	st := tree.Stats()
	if st.TotalCuts == 0 || st.InducedCuts != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Leaves != tree.NumLeaves() {
		t.Error("stats leaves mismatch")
	}

	// Record assignment covers every row exactly once.
	groups := tree.AssignRecords(tab)
	if len(groups) != tree.NumLeaves() {
		t.Fatal("groups/leaves mismatch")
	}
	seen := make([]bool, tab.NumRows())
	for _, g := range groups {
		for _, r := range g {
			if seen[r] {
				t.Fatal("row assigned twice")
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d unassigned", r)
		}
	}

	// Routing q1 visits fewer leaves than the whole tree, and the visited
	// leaves contain every matching record.
	q1 := singleTableQuery("route1", px)
	visited := tree.RouteQuery(q1)
	if len(visited) == 0 || len(visited) >= tree.NumLeaves() {
		t.Errorf("q1 visits %d of %d leaves", len(visited), tree.NumLeaves())
	}
	visSet := map[int]bool{}
	for _, l := range visited {
		visSet[l] = true
	}
	match := newBitset(tab.NumRows())
	predicate.FillMask(px, tab, match)
	for li, g := range groups {
		if visSet[li] {
			continue
		}
		for _, r := range g {
			if match.get(int(r)) {
				t.Fatalf("matching row %d in skipped leaf %d", r, li)
			}
		}
	}
}

func TestBuildConfigValidation(t *testing.T) {
	tab := singleTable(t, 10, 1)
	if _, err := Build(tab, nil, nil, Config{Table: "", BlockSize: 1, SampleRate: 1}); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := Build(tab, nil, nil, Config{Table: "T", BlockSize: 0, SampleRate: 1}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := Build(tab, nil, nil, Config{Table: "T", BlockSize: 1, SampleRate: 0}); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := Build(tab, nil, nil, Config{Table: "T", BlockSize: 1, SampleRate: 1.5}); err == nil {
		t.Error("super-unit sample rate accepted")
	}
}

func TestNoSplitWithoutBenefit(t *testing.T) {
	tab := singleTable(t, 1000, 2)
	// The only query scans everything: no cut can skip records.
	q := workload.NewQuery("scan", workload.TableRef{Table: "T"})
	w := workload.NewWorkload(q)
	cuts := []Cut{NewSimpleCut(predicate.NewComparison("x", predicate.Lt, value.Int(500)))}
	tree, err := Build(tab, BuildQueries(w, "T"), cuts, Config{Table: "T", BlockSize: 100, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Errorf("unfiltered workload should give a single leaf, got %d", tree.NumLeaves())
	}
	// Routing an unfiltered query visits every leaf.
	if got := tree.RouteQuery(q); len(got) != 1 {
		t.Errorf("RouteQuery = %v", got)
	}
	// Routing a query that doesn't touch T visits nothing.
	other := workload.NewQuery("other", workload.TableRef{Table: "ZZZ"})
	if got := tree.RouteQuery(other); got != nil {
		t.Errorf("foreign query routed to %v", got)
	}
}

func TestBlockSizeRespected(t *testing.T) {
	tab := singleTable(t, 10000, 3)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(5)) // ~0.5% selective
	w := workload.NewWorkload(singleTableQuery("q", px))
	tree, err := Build(tab, BuildQueries(w, "T"), []Cut{NewSimpleCut(px)}, Config{
		Table: "T", BlockSize: 1000, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The x<5 side holds ~50 estimated rows < blockSize, so the greedy
	// split is rejected and the tree stays a single leaf.
	if tree.NumLeaves() != 1 {
		t.Errorf("sub-block split accepted: %d leaves", tree.NumLeaves())
	}
}

// starDataset builds dim(id unique, attr) and fact(fid, did, v).
func starDataset(t *testing.T, dims, factsPerDim int, seed int64) *relation.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := relation.NewDataset()
	dim := relation.NewTable(relation.MustSchema("dim",
		relation.Column{Name: "id", Type: value.KindInt, Unique: true},
		relation.Column{Name: "attr", Type: value.KindInt},
	))
	for i := 0; i < dims; i++ {
		dim.MustAppendRow(value.Int(int64(i)), value.Int(int64(i%10)))
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "did", Type: value.KindInt},
		relation.Column{Name: "v", Type: value.KindInt},
	))
	n := dims * factsPerDim
	for i := 0; i < n; i++ {
		fact.MustAppendRow(value.Int(int64(i)), value.Int(int64(rng.Intn(dims))), value.Int(int64(rng.Intn(1000))))
	}
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)
	return ds
}

func starQuery(id string, dimAttr int64) *workload.Query {
	q := workload.NewQuery(id,
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q.AddJoin("dim", "id", "fact", "did")
	q.Filter("dim", predicate.NewComparison("attr", predicate.Eq, value.Int(dimAttr)))
	return q
}

func TestInducedCutBuildAndRoute(t *testing.T) {
	ds := starDataset(t, 100, 100, 4) // fact has 10k rows
	fact := ds.Table("fact")

	// Queries filter dim.attr = k; each selects ~10% of dims → ~10% of fact.
	var qs []*workload.Query
	for k := int64(0); k < 10; k++ {
		qs = append(qs, starQuery("q"+string(rune('0'+k)), k))
	}
	w := workload.NewWorkload(qs...)

	// Induced candidate cuts: dim.attr=k pushed to fact.did.
	unique := func(tbl, col string) bool { return tbl == "dim" && col == "id" }
	byTarget := induce.FromWorkload(w, unique, 4)
	var cuts []Cut
	for _, ip := range byTarget["fact"] {
		if err := induce.EvaluateAll(ds, []*induce.Predicate{ip}, 1); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, NewInducedCut(ip))
	}
	if len(cuts) != 10 {
		t.Fatalf("induced candidates = %d", len(cuts))
	}

	tree, err := Build(fact, BuildQueries(w, "fact"), cuts, Config{
		Table: "fact", BlockSize: 500, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() < 2 {
		t.Fatal("induced cuts were not used to split")
	}
	st := tree.Stats()
	if st.InducedCuts == 0 || st.InducedCuts != st.TotalCuts {
		t.Errorf("stats = %+v, want all cuts induced", st)
	}
	if st.MaxDepth != 1 || st.AvgInductionDepth() != 1 {
		t.Errorf("induction depth stats = %+v", st)
	}
	if len(tree.InducedCuts()) != st.InducedCuts {
		t.Error("InducedCuts() mismatch")
	}

	// A workload query skips leaves, and skipped leaves contain no rows
	// joining to the selected dims.
	groups := tree.AssignRecords(fact)
	q := qs[3]
	visited := map[int]bool{}
	for _, l := range tree.RouteQuery(q) {
		visited[l] = true
	}
	if len(visited) >= tree.NumLeaves() {
		t.Fatalf("query visits all %d leaves", tree.NumLeaves())
	}
	// Compute the dim ids with attr=3.
	dim := ds.Table("dim")
	sel := map[int64]bool{}
	for r := 0; r < dim.NumRows(); r++ {
		if dim.ValueByName(r, "attr").Int() == 3 {
			sel[dim.ValueByName(r, "id").Int()] = true
		}
	}
	for li, g := range groups {
		if visited[li] {
			continue
		}
		for _, r := range g {
			if sel[fact.ValueByName(int(r), "did").Int()] {
				t.Fatalf("skipped leaf %d contains a joining row", li)
			}
		}
	}

	// A query with the same join but source filter outside all cuts routes
	// through negations: it must still visit at least one leaf.
	qOut := starQuery("out", 999)
	if got := tree.RouteQuery(qOut); len(got) == 0 {
		t.Error("out-of-range source filter should still visit the negation side")
	}

	// A query without the join visits everything.
	noJoin := workload.NewQuery("nojoin", workload.TableRef{Table: "fact"})
	if got := tree.RouteQuery(noJoin); len(got) != tree.NumLeaves() {
		t.Errorf("joinless query visits %d of %d", len(got), tree.NumLeaves())
	}

	_ = tree.Dump() // smoke: renders without panic
	if !strings.Contains(tree.Dump(), "induced") {
		t.Error("Dump should mention induced cuts")
	}
}

func TestCardinalityAdjustedBuild(t *testing.T) {
	// Build on a sample with an induced cut: CA should prevent the
	// sampled join thinning from blocking splits.
	full := starDataset(t, 200, 200, 5) // fact 40k rows
	rng := rand.New(rand.NewSource(6))
	s := 0.25
	sample, _ := full.Sample(s, 100, rng)

	var qs []*workload.Query
	for k := int64(0); k < 10; k++ {
		qs = append(qs, starQuery("q"+string(rune('a'+k)), k))
	}
	w := workload.NewWorkload(qs...)
	unique := func(tbl, col string) bool { return tbl == "dim" && col == "id" }
	byTarget := induce.FromWorkload(w, unique, 4)
	var cuts []Cut
	for _, ip := range byTarget["fact"] {
		if err := induce.EvaluateAll(sample, []*induce.Predicate{ip}, 1); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, NewInducedCut(ip))
	}
	sampleFact := sample.Table("fact")

	withCA, err := Build(sampleFact, BuildQueries(w, "fact"), cuts, Config{
		Table: "fact", BlockSize: 2000, SampleRate: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	withoutCA, err := Build(sampleFact, BuildQueries(w, "fact"), cuts, Config{
		Table: "fact", BlockSize: 2000, SampleRate: s, DisableCA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without CA, induced-cut yes-children look s× too small (the sample
	// join thins quadratically), so fewer splits pass the block-size
	// validity check. CA restores them.
	if withCA.NumLeaves() < withoutCA.NumLeaves() {
		t.Errorf("CA leaves %d < no-CA leaves %d", withCA.NumLeaves(), withoutCA.NumLeaves())
	}
	if withCA.NumLeaves() < 2 {
		t.Error("CA build failed to split at all")
	}
}

func TestReplaceSubtree(t *testing.T) {
	tab := singleTable(t, 4000, 7)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(500))
	py := predicate.NewComparison("y", predicate.Lt, value.Int(500))
	w := workload.NewWorkload(singleTableQuery("q1", px), singleTableQuery("q2", py))
	tree, err := Build(tab, BuildQueries(w, "T"), []Cut{NewSimpleCut(px), NewSimpleCut(py)}, Config{
		Table: "T", BlockSize: 500, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.IsLeaf() {
		t.Fatal("tree did not split")
	}
	before := tree.NumLeaves()
	// Replace the left subtree with a single leaf.
	old := tree.Root.Left
	oldLeaves := len(SubtreeLeaves(old))
	leaf := &Node{LeafIndex: -1, SampleRows: old.SampleRows, EstRows: old.EstRows, Region: old.Region}
	tree.Replace(old, leaf)
	if got := tree.NumLeaves(); got != before-oldLeaves+1 {
		t.Errorf("leaves after replace = %d, want %d", got, before-oldLeaves+1)
	}
	if tree.Root.Left != leaf || leaf.Parent != tree.Root {
		t.Error("pointers not rewired")
	}
	// Leaf indexes are contiguous after reindex.
	for i, lf := range tree.Leaves() {
		if lf.LeafIndex != i {
			t.Fatal("leaf indexes not contiguous")
		}
	}
	// Replacing the root swaps the whole tree.
	newRoot := &Node{LeafIndex: -1, SampleRows: tree.Root.SampleRows}
	tree.Replace(tree.Root, newRoot)
	if tree.Root != newRoot || tree.NumLeaves() != 1 {
		t.Error("root replacement failed")
	}
}

func TestCollectRows(t *testing.T) {
	groups := [][]int32{{1, 2}, {3}, {4, 5}}
	leaves := []*Node{{LeafIndex: 0}, {LeafIndex: 2}}
	got := CollectRows(leaves, groups)
	if len(got) != 4 || got[0] != 1 || got[3] != 5 {
		t.Errorf("CollectRows = %v", got)
	}
	// Out-of-range leaf indexes are ignored.
	if got := CollectRows([]*Node{{LeafIndex: 9}}, groups); got != nil {
		t.Errorf("out-of-range leaf = %v", got)
	}
}

func TestNodesBFSOrder(t *testing.T) {
	tab := singleTable(t, 4000, 8)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(500))
	py := predicate.NewComparison("y", predicate.Lt, value.Int(500))
	w := workload.NewWorkload(singleTableQuery("q1", px), singleTableQuery("q2", py))
	tree, err := Build(tab, BuildQueries(w, "T"), []Cut{NewSimpleCut(px), NewSimpleCut(py)}, Config{
		Table: "T", BlockSize: 500, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tree.Nodes()
	if nodes[0] != tree.Root {
		t.Error("BFS must start at root")
	}
	// Every child appears after its parent.
	pos := map[*Node]int{}
	for i, n := range nodes {
		pos[n] = i
	}
	for _, n := range nodes {
		if !n.IsLeaf() {
			if pos[n.Left] < pos[n] || pos[n.Right] < pos[n] {
				t.Fatal("BFS order violated")
			}
		}
	}
	empty := &Tree{Table: "T"}
	if empty.Nodes() != nil {
		t.Error("empty tree Nodes should be nil")
	}
}

func TestSimpleCutRouting(t *testing.T) {
	cut := NewSimpleCut(predicate.NewComparison("x", predicate.Lt, value.Int(100)))
	region, s := predicate.Ranges{}, singleTable(t, 1, 1).Schema()
	// A query filtering x > 200 only needs the right (negation) side.
	q := singleTableQuery("q", predicate.NewComparison("x", predicate.Gt, value.Int(200)))
	rc := RouteContext{Query: q, Alias: "T", Filter: q.FilterOn("T"), Schema: s}
	l, r := oracleRoute(cut, &rc, region)
	if l || !r {
		t.Errorf("Route = %v,%v, want false,true", l, r)
	}
	// A query filtering x < 50 only needs the left side.
	q2 := singleTableQuery("q2", predicate.NewComparison("x", predicate.Lt, value.Int(50)))
	rc2 := RouteContext{Query: q2, Alias: "T", Filter: q2.FilterOn("T"), Schema: s}
	l, r = oracleRoute(cut, &rc2, region)
	if !l || r {
		t.Errorf("Route = %v,%v, want true,false", l, r)
	}
	// Unfiltered queries need both.
	q3 := workload.NewQuery("q3", workload.TableRef{Table: "T"})
	rc3 := RouteContext{Query: q3, Alias: "T", Filter: q3.FilterOn("T"), Schema: s}
	l, r = oracleRoute(cut, &rc3, region)
	if !l || !r {
		t.Errorf("Route = %v,%v, want true,true", l, r)
	}
	if cut.MemBytes() <= 0 || cut.String() == "" {
		t.Error("cosmetics wrong")
	}
}

func TestInducedCutRoutingNegationOnly(t *testing.T) {
	ds := starDataset(t, 50, 20, 9)
	w := workload.NewWorkload(starQuery("train", 1))
	unique := func(tbl, col string) bool { return tbl == "dim" && col == "id" }
	byTarget := induce.FromWorkload(w, unique, 4)
	ip := byTarget["fact"][0]
	if err := induce.EvaluateAll(ds, []*induce.Predicate{ip}, 1); err != nil {
		t.Fatal(err)
	}
	cut := NewInducedCut(ip)

	// Query with the join and source filter attr=1: only left.
	q := starQuery("same", 1)
	rc := RouteContext{Query: q, Alias: "fact", Filter: q.FilterOn("fact")}
	l, r := oracleRoute(cut, &rc, predicate.Ranges{})
	if !l || r {
		t.Errorf("matching source filter: Route = %v,%v", l, r)
	}
	// Query with the join and source filter attr=2 (disjoint): only right.
	q2 := starQuery("other", 2)
	rc2 := RouteContext{Query: q2, Alias: "fact", Filter: q2.FilterOn("fact")}
	l, r = oracleRoute(cut, &rc2, predicate.Ranges{})
	if l || !r {
		t.Errorf("disjoint source filter: Route = %v,%v", l, r)
	}
	// Query with the join but an unfiltered source: both.
	q3 := workload.NewQuery("nofilter",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q3.AddJoin("dim", "id", "fact", "did")
	rc3 := RouteContext{Query: q3, Alias: "fact", Filter: q3.FilterOn("fact")}
	l, r = oracleRoute(cut, &rc3, predicate.Ranges{})
	if !l || !r {
		t.Errorf("unfiltered source: Route = %v,%v", l, r)
	}
	// Query without the join: both.
	q4 := workload.NewQuery("nojoin", workload.TableRef{Table: "fact"})
	rc4 := RouteContext{Query: q4, Alias: "fact", Filter: q4.FilterOn("fact")}
	l, r = oracleRoute(cut, &rc4, predicate.Ranges{})
	if !l || !r {
		t.Errorf("joinless query: Route = %v,%v", l, r)
	}
	// Range-overlap source filter (attr <= 1 intersects attr=1 and its
	// negation): both.
	q5 := workload.NewQuery("range",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q5.AddJoin("dim", "id", "fact", "did")
	q5.Filter("dim", predicate.NewComparison("attr", predicate.Le, value.Int(1)))
	rc5 := RouteContext{Query: q5, Alias: "fact", Filter: q5.FilterOn("fact")}
	l, r = oracleRoute(cut, &rc5, predicate.Ranges{})
	if !l || !r {
		t.Errorf("overlapping source filter: Route = %v,%v", l, r)
	}
	if cut.MemBytes() <= 0 || cut.InductionDepth() != 1 || !cut.IsInduced() {
		t.Error("cosmetics wrong")
	}
	region := predicate.NewRanges([]predicate.Interval{predicate.Point(value.Int(1))})
	if got := cut.LeftRanges(region, nil); got.String() != region.String() {
		t.Error("induced cuts must not alter regions")
	}
}

func TestTreeClone(t *testing.T) {
	tab := singleTable(t, 4000, 12)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(500))
	py := predicate.NewComparison("y", predicate.Lt, value.Int(500))
	w := workload.NewWorkload(singleTableQuery("q1", px), singleTableQuery("q2", py))
	tree, err := Build(tab, BuildQueries(w, "T"), []Cut{NewSimpleCut(px), NewSimpleCut(py)}, Config{
		Table: "T", BlockSize: 500, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	clone := tree.Clone()
	if clone.Dump() != tree.Dump() {
		t.Fatal("clone structure differs")
	}
	if clone.Root == tree.Root {
		t.Fatal("clone shares nodes")
	}
	// Mutating the clone leaves the original untouched.
	leaf := &Node{LeafIndex: -1, SampleRows: clone.Root.SampleRows, EstRows: clone.Root.EstRows}
	clone.Replace(clone.Root.Left, leaf)
	if clone.NumLeaves() == tree.NumLeaves() {
		t.Fatal("replace had no effect on clone")
	}
	if tree.Dump() == clone.Dump() {
		t.Fatal("mutating clone changed original")
	}
	// Routing on the original still works and matches a fresh assignment.
	groups := tree.AssignRecords(tab)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != tab.NumRows() {
		t.Fatal("original tree corrupted by clone mutation")
	}
}
