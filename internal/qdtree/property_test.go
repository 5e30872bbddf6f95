package qdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// TestRoutingSoundnessProperty is the qd-tree's core guarantee: for any
// workload-style query, the leaves the query is routed to contain every
// record the query's filter matches — skipped leaves are provably
// irrelevant (§2.1.2).
func TestRoutingSoundnessProperty(t *testing.T) {
	f := func(seed int64, lo, hi int16) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := relation.NewTable(relation.MustSchema("T",
			relation.Column{Name: "x", Type: value.KindInt},
			relation.Column{Name: "y", Type: value.KindInt},
		))
		n := 2000 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			tab.MustAppendRow(
				value.Int(int64(rng.Intn(1000))),
				value.Int(int64(rng.Intn(1000))),
			)
		}
		// Random training workload of range filters.
		var qs []*workload.Query
		var cuts []Cut
		for i := 0; i < 6; i++ {
			col := "x"
			if i%2 == 1 {
				col = "y"
			}
			v := value.Int(int64(rng.Intn(1000)))
			p := predicate.NewComparison(col, predicate.Op(rng.Intn(6)), v)
			q := workload.NewQuery("t"+string(rune('0'+i)), workload.TableRef{Table: "T"})
			q.Filter("T", p)
			qs = append(qs, q)
			cuts = append(cuts, NewSimpleCut(p))
		}
		tree, err := Build(tab, BuildQueries(workload.NewWorkload(qs...), "T"), cuts, Config{
			Table: "T", BlockSize: 200, SampleRate: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		groups := tree.AssignRecords(tab)

		// A fresh probe query unseen at build time.
		a, b := int64(lo), int64(hi)
		if a > b {
			a, b = b, a
		}
		probe := workload.NewQuery("probe", workload.TableRef{Table: "T"})
		probe.Filter("T", predicate.NewAnd(
			predicate.NewComparison("x", predicate.Ge, value.Int(a%1000)),
			predicate.NewComparison("x", predicate.Le, value.Int(b%1000)),
		))
		visited := map[int]bool{}
		for _, li := range tree.RouteQuery(probe) {
			visited[li] = true
		}
		match := newBitset(tab.NumRows())
		predicate.FillMask(probe.FilterOn("T"), tab, match)
		for li, g := range groups {
			if visited[li] {
				continue
			}
			for _, r := range g {
				if match.get(int(r)) {
					t.Logf("matching row %d in skipped leaf %d", r, li)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAssignRecordsPartitionProperty: record routing always yields an exact
// partition of the table, whatever the cuts.
func TestAssignRecordsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := relation.NewTable(relation.MustSchema("T",
			relation.Column{Name: "x", Type: value.KindInt},
		))
		n := 500 + rng.Intn(1500)
		for i := 0; i < n; i++ {
			tab.MustAppendRow(value.Int(int64(rng.Intn(100))))
		}
		var qs []*workload.Query
		var cuts []Cut
		for i := 0; i < 4; i++ {
			p := predicate.NewComparison("x", predicate.Lt, value.Int(int64(rng.Intn(100))))
			q := workload.NewQuery("q"+string(rune('0'+i)), workload.TableRef{Table: "T"})
			q.Filter("T", p)
			qs = append(qs, q)
			cuts = append(cuts, NewSimpleCut(p))
		}
		tree, err := Build(tab, BuildQueries(workload.NewWorkload(qs...), "T"), cuts, Config{
			Table: "T", BlockSize: 100, SampleRate: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, tab.NumRows())
		for _, g := range tree.AssignRecords(tab) {
			for _, r := range g {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
