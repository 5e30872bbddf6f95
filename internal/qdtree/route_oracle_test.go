package qdtree

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mto/internal/datagen"
	"mto/internal/induce"
	"mto/internal/joingraph"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// The per-node router the prepared router replaced, kept as the oracle the
// routing tests compare against: every node re-derives its child regions,
// and every induced cut re-matches its path and re-extracts the source
// filters' ranges, for every query.

// RouteContext carries one query's view of the table being routed. A query
// referencing the table through several aliases (self join) is routed once
// per alias and the block sets are unioned.
type RouteContext struct {
	Query  *workload.Query
	Alias  string
	Filter predicate.Predicate // the query's filter on this alias
}

// oracleRoute decides which children of cut a query must visit; region is
// the node's accumulated per-column constraint region.
func oracleRoute(cut Cut, rc *RouteContext, region predicate.Ranges) (left, right bool) {
	ind := cut.induced()
	if ind == nil {
		// A child is visited unless the query's filter is provably
		// unsatisfiable within the child's region.
		l := cut.LeftRanges(region)
		r := cut.RightRanges(region)
		left = !l.HasEmpty() && predicate.CompileRanges(rc.Filter)(l) != predicate.TriFalse
		right = !r.HasEmpty() && predicate.CompileRanges(rc.Filter)(r) != predicate.TriFalse
		return left, right
	}
	// §4.1.2: if the query's join graph does not share the cut's induction
	// path, route to both children. Otherwise route left iff the query's
	// filters on the source table intersect the source cut, and
	// independently right iff they intersect its negation.
	sources, ok := joingraph.MatchPath(rc.Query, ind.Path)
	if !ok {
		return true, true
	}
	neg := ind.SourceCut.Negate()
	for _, srcAlias := range sources {
		f := rc.Query.FilterOn(srcAlias)
		if predicatesIntersect(f, ind.SourceCut) {
			left = true
		}
		if predicatesIntersect(f, neg) {
			right = true
		}
		if left && right {
			break
		}
	}
	return left, right
}

// predicatesIntersect conservatively decides whether two predicates over
// the same table can hold simultaneously: it is false only when provably
// disjoint (checked in both directions through range extraction).
func predicatesIntersect(a, b predicate.Predicate) bool {
	ra, rb := predicate.RangesOf(a), predicate.RangesOf(b)
	if ra.Refine(rb).HasEmpty() {
		return false
	}
	return predicate.CompileRanges(a)(rb) != predicate.TriFalse &&
		predicate.CompileRanges(b)(ra) != predicate.TriFalse
}

// oracleRouteQuery is RouteQuery through oracleRoute.
func oracleRouteQuery(t *Tree, q *workload.Query) []int {
	needed := make([]bool, len(t.Leaves()))
	for _, alias := range q.AliasesOf(t.Table) {
		rc := RouteContext{Query: q, Alias: alias, Filter: q.FilterOn(alias)}
		routeContext(t, &rc, needed)
	}
	var out []int
	for i, n := range needed {
		if n {
			out = append(out, i)
		}
	}
	return out
}

func routeContext(t *Tree, rc *RouteContext, needed []bool) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			needed[n.LeafIndex] = true
			return
		}
		l, r := oracleRoute(n.Cut, rc, n.Region)
		if l {
			walk(n.Left)
		}
		if r {
			walk(n.Right)
		}
	}
	walk(t.Root)
}

// mtoTrees builds every table's qd-tree over ds the way core.Optimize does
// without sampling: the workload's simple predicates and its join-induced
// predicates (evaluated on ds) as candidates.
func mtoTrees(tb testing.TB, ds *relation.Dataset, w *workload.Workload, blockSize int) []*Tree {
	tb.Helper()
	unique := func(tbl, col string) bool {
		t := ds.Table(tbl)
		return t != nil && t.Schema().IsUnique(col)
	}
	simple := workload.SimplePredicates(w)
	induced := induce.FromWorkload(w, unique, 4)
	var all []*induce.Predicate
	for _, ips := range induced {
		all = append(all, ips...)
	}
	if err := induce.EvaluateAll(ds, all, 1); err != nil {
		tb.Fatal(err)
	}
	var trees []*Tree
	for _, name := range ds.TableNames() {
		var cuts []Cut
		for _, p := range simple[name] {
			cuts = append(cuts, NewSimpleCut(p))
		}
		for _, ip := range induced[name] {
			cuts = append(cuts, NewInducedCut(ip))
		}
		tree, err := Build(ds.Table(name), BuildQueries(w, name), cuts, Config{
			Table: name, BlockSize: blockSize, SampleRate: 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		trees = append(trees, tree)
	}
	return trees
}

// routeBench is one benchmark's trees, with its training workload and
// fresh instances of every template.
type routeBench struct {
	name    string
	ds      *relation.Dataset
	train   *workload.Workload
	trees   []*Tree
	queries []*workload.Query // training, then fresh instances
}

func routeBenches(tb testing.TB) []routeBench {
	tb.Helper()
	const fresh = 30
	mk := func(name string, ds *relation.Dataset, train *workload.Workload, more func(seed int64) []*workload.Query) routeBench {
		rb := routeBench{name: name, ds: ds, train: train, trees: mtoTrees(tb, ds, train, 100)}
		rb.queries = append(rb.queries, train.Queries...)
		for seed := int64(2); seed < 2+fresh; seed++ {
			rb.queries = append(rb.queries, more(seed)...)
			if name == "tpch" {
				break // one call draws every fresh instance
			}
		}
		return rb
	}
	return []routeBench{
		mk("ssb", datagen.SSB(datagen.SSBConfig{ScaleFactor: 0.001, Seed: 1}), datagen.SSBWorkload(1),
			func(seed int64) []*workload.Query { return datagen.SSBWorkload(seed).Queries }),
		mk("tpch", datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.002, Seed: 1}), datagen.TPCHWorkload(2, 1),
			func(seed int64) []*workload.Query { return datagen.TPCHWorkload(fresh, seed).Queries }),
		mk("tpcds", datagen.TPCDS(datagen.TPCDSConfig{ScaleFactor: 0.002, Seed: 1}), datagen.TPCDSWorkload(1),
			func(seed int64) []*workload.Query { return datagen.TPCDSWorkload(seed).Queries }),
	}
}

// checkRoutes requires RouteQuery to equal the oracle for every query on
// tree, and returns how many routed queries reference the table through
// more than one alias when the tree has split.
func checkRoutes(t *testing.T, label string, tree *Tree, queries []*workload.Query) (selfJoins int) {
	t.Helper()
	for _, q := range queries {
		want := oracleRouteQuery(tree, q)
		if got := tree.RouteQuery(q); !slices.Equal(got, want) {
			t.Fatalf("%s: %s on %s: prepared %v, oracle %v", label, q.ID, tree.Table, got, want)
		}
		if len(q.AliasesOf(tree.Table)) > 1 && !tree.Root.IsLeaf() {
			selfJoins++
		}
	}
	return selfJoins
}

func TestPreparedRouteMatchesOracle(t *testing.T) {
	for _, rb := range routeBenches(t) {
		selfJoins, inner, induced := 0, 0, 0
		for _, tree := range rb.trees {
			induced += tree.Stats().InducedCuts
			selfJoins += checkRoutes(t, rb.name+" as built", tree, rb.queries)
			tbl := rb.ds.Table(tree.Table)
			if got, want := tree.AssignRecords(tbl), oracleAssign(tree, tbl); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: AssignRecords differs from routing each row alone", rb.name, tree.Table)
			}

			data, err := json.Marshal(tree)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalTree(data)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutes(t, rb.name+" after JSON", back, rb.queries)

			// Replace the root's left subtree, as a reorganization does:
			// a tree rebuilt over that subtree's rows. The clone has routed
			// before, so its prepared router must be rebuilt.
			if tree.Root.IsLeaf() {
				continue
			}
			inner++
			clone := tree.Clone()
			checkRoutes(t, rb.name+" clone", clone, rb.queries)
			old := clone.Root.Left
			groups := clone.AssignRecords(rb.ds.Table(tree.Table))
			var rows []int
			for _, r := range CollectRows(SubtreeLeaves(old), groups) {
				rows = append(rows, int(r))
			}
			sub, err := Build(rb.ds.Table(tree.Table).SelectRows(rows), BuildQueries(rb.train, tree.Table),
				cutsOf(tree), Config{Table: tree.Table, BlockSize: 50, SampleRate: 1})
			if err != nil {
				t.Fatal(err)
			}
			clone.Replace(old, sub.Root)
			checkRoutes(t, rb.name+" after Replace", clone, rb.queries)
		}
		t.Logf("%s: %d trees (%d split, %d induced cuts) × %d queries, %d self-join routes",
			rb.name, len(rb.trees), inner, induced, len(rb.queries), selfJoins)
		if inner == 0 || induced == 0 {
			t.Errorf("%s: %d trees split, %d induced cuts", rb.name, inner, induced)
		}
		if rb.name == "tpch" && selfJoins == 0 {
			t.Errorf("%s: no self-join alias was routed", rb.name)
		}
	}
}

// oracleAssign routes every row of tbl alone from the root, reading each
// cut's full-table mask: the per-row walk AssignRecords' node-by-node
// partitioning must reproduce, group for group.
func oracleAssign(tree *Tree, tbl *relation.Table) [][]int32 {
	masks := map[*Node]bitset{}
	for _, n := range tree.Nodes() {
		if !n.IsLeaf() {
			masks[n] = newBitset(tbl.NumRows())
			n.Cut.FillMask(tbl, nil, masks[n], nil)
		}
	}
	groups := make([][]int32, tree.NumLeaves())
	for r := 0; r < tbl.NumRows(); r++ {
		n := tree.Root
		for !n.IsLeaf() {
			if masks[n].get(r) {
				n = n.Left
			} else {
				n = n.Right
			}
		}
		groups[n.LeafIndex] = append(groups[n.LeafIndex], int32(r))
	}
	return groups
}

// get reports whether row i is set.
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// cutsOf returns the distinct cuts of tree in pre-order.
func cutsOf(tree *Tree) []Cut {
	var out []Cut
	seen := map[Cut]bool{}
	for _, n := range tree.Nodes() {
		if !n.IsLeaf() && !seen[n.Cut] {
			seen[n.Cut] = true
			out = append(out, n.Cut)
		}
	}
	return out
}

// TestConcurrentFirstRoute makes the first RouteQuery on a freshly
// replaced tree from eight goroutines at once (run it under -race).
func TestConcurrentFirstRoute(t *testing.T) {
	tab := singleTable(t, 4000, 12)
	px := predicate.NewComparison("x", predicate.Lt, value.Int(500))
	py := predicate.NewComparison("y", predicate.Lt, value.Int(500))
	w := workload.NewWorkload(singleTableQuery("q1", px), singleTableQuery("q2", py))
	cfg := Config{Table: "T", BlockSize: 250, SampleRate: 1}
	cuts := []Cut{NewSimpleCut(px), NewSimpleCut(py)}
	tree, err := Build(tab, BuildQueries(w, "T"), cuts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Build(tab, BuildQueries(w, "T"), cuts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree.RouteQuery(w.Queries[0])
	tree.Replace(tree.Root.Right, sub.Root)

	probes := []*workload.Query{
		singleTableQuery("lo", predicate.NewComparison("x", predicate.Lt, value.Int(100))),
		singleTableQuery("hi", predicate.NewComparison("y", predicate.Gt, value.Int(900))),
		w.Queries[0], w.Queries[1],
	}
	want := make([][]int, len(probes))
	for i, q := range probes {
		want[i] = oracleRouteQuery(tree, q)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan string, 8*len(probes))
	for g := 0; g < 8; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			for k := range probes {
				i := (g + k) % len(probes)
				if got := tree.RouteQuery(probes[i]); !slices.Equal(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d, %s: %v, want %v", g, probes[i].ID, got, want[i])
				}
			}
		}(g)
	}
	start.Done()
	done.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkRouteQuery routes every fresh instance of the 22 TPC-H
// templates through every table's MTO tree, with the prepared router and
// with the per-node oracle it replaced.
func BenchmarkRouteQuery(b *testing.B) {
	ds := datagen.TPCH(datagen.TPCHConfig{ScaleFactor: 0.01, Seed: 1})
	trees := mtoTrees(b, ds, datagen.TPCHWorkload(8, 1), 500)
	queries := datagen.TPCHWorkload(8, 2).Queries
	for _, bc := range []struct {
		name  string
		route func(*Tree, *workload.Query) []int
	}{
		{"prepared", (*Tree).RouteQuery},
		{"oracle", oracleRouteQuery},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tree := range trees {
					tree.Reindex() // every iteration pays the router's build
					for _, q := range queries {
						bc.route(tree, q)
					}
				}
			}
		})
	}
}

// TestPreparedRouteEmptyRegion routes through a cut whose yes-child region
// contradicts its node's region (x > 200 under x < 100): that child is
// never visited, even by a query whose filter names only another column.
func TestPreparedRouteEmptyRegion(t *testing.T) {
	lt := predicate.NewComparison("x", predicate.Lt, value.Int(100))
	gt := predicate.NewComparison("x", predicate.Gt, value.Int(200))
	root := &Node{Cut: NewSimpleCut(lt), Region: predicate.Ranges{}}
	inner := &Node{Cut: NewSimpleCut(gt), Parent: root, Region: root.Cut.LeftRanges(root.Region)}
	inner.Left = &Node{Parent: inner, Region: inner.Cut.LeftRanges(inner.Region)}
	inner.Right = &Node{Parent: inner, Region: inner.Cut.RightRanges(inner.Region)}
	root.Left, root.Right = inner, &Node{Parent: root, Region: root.Cut.RightRanges(root.Region)}
	tree := &Tree{Table: "T", Root: root}
	tree.Reindex()
	for _, q := range []*workload.Query{
		singleTableQuery("y", predicate.NewComparison("y", predicate.Lt, value.Int(5))),
		singleTableQuery("x", predicate.NewComparison("x", predicate.Lt, value.Int(50))),
		workload.NewQuery("all", workload.TableRef{Table: "T"}),
	} {
		got, want := tree.RouteQuery(q), oracleRouteQuery(tree, q)
		if !slices.Equal(got, want) || slices.Contains(got, inner.Left.LeafIndex) {
			t.Errorf("%s: prepared %v, oracle %v; leaf %d is empty", q.ID, got, want, inner.Left.LeafIndex)
		}
	}
}
