package engine

import (
	"fmt"
	"reflect"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/value"
	"mto/internal/workload"
)

// TestJoinVariantInvarianceAcrossLayouts replays every join type — inner,
// semi, both one-sided outers, full outer, and both anti-semis — through
// RunWorkload over three different physical layouts. Surviving row counts
// of result-relevant aliases are a function of data and query only, so they
// must agree across layouts; and on each layout the parallel kernel replay
// must be byte-identical to a sequential reference replay. Run under -race
// this also exercises the engine's shared dictionary/translation caches
// concurrently.
//
// An anti join's non-preserved side is excluded: its rows only supply keys
// and never reach the result (§4.1.1 — that irrelevance is exactly what
// makes the side block-prunable), so how many of them survive the scan
// legitimately varies with how well the layout clusters the pruned keys.
func TestJoinVariantInvarianceAcrossLayouts(t *testing.T) {
	ds := starDS(t, 100, 10000, 14)
	types := []workload.JoinType{
		workload.InnerJoin,
		workload.SemiJoin,
		workload.LeftOuterJoin,
		workload.RightOuterJoin,
		workload.FullOuterJoin,
		workload.LeftAntiSemiJoin,
		workload.RightAntiSemiJoin,
	}
	relevant := func(jt workload.JoinType) []string {
		switch jt {
		case workload.LeftAntiSemiJoin:
			return []string{"dim"} // fact rows only feed the key set
		case workload.RightAntiSemiJoin:
			return []string{"fact"} // dim rows only feed the key set
		default:
			return []string{"dim", "fact"}
		}
	}
	var queries []*workload.Query
	for i, jt := range types {
		q := workload.NewQuery(fmt.Sprintf("jt-%d", i),
			workload.TableRef{Table: "dim"},
			workload.TableRef{Table: "fact"},
		)
		q.AddTypedJoin(workload.Join{
			Left: "dim", LeftColumn: "id", Right: "fact", RightColumn: "did", Type: jt,
		})
		q.Filter("dim", predicate.NewComparison("attr", predicate.Eq, value.Int(3)))
		q.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(500)))
		queries = append(queries, q)
	}

	layouts := []layout.SortKeys{
		{"fact": "d", "dim": "id"},
		{"fact": "did", "dim": "attr"},
		{"fact": "v", "dim": "id"},
	}
	opts := CloudDWOptions()
	opts.DiPs = true

	var surviving []map[string]int // one entry per (layout, query), layout-major
	for li, keys := range layouts {
		d, err := layout.SortKeyDesign(ds, keys, 500)
		if err != nil {
			t.Fatal(err)
		}
		store := colstore.NewMemStore(block.DefaultCostModel())
		if _, err := d.Install(store, nil, 0); err != nil {
			t.Fatal(err)
		}
		e := New(store, d, ds, opts)
		kernel, err := RunWorkload(e, queries, RunOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunWorkload(e, queries, RunOptions{Parallelism: 1, Reference: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kernel, ref) {
			t.Fatalf("layout %d: parallel kernel replay diverges from sequential reference", li)
		}
		for _, res := range kernel.Results {
			surviving = append(surviving, res.SurvivingRows)
		}
	}
	for qi, q := range queries {
		base := surviving[qi]
		for li := 1; li < len(layouts); li++ {
			got := surviving[li*len(queries)+qi]
			for _, alias := range relevant(types[qi]) {
				if got[alias] != base[alias] {
					t.Errorf("query %s alias %s: survivors differ across layouts: %d vs %d",
						q.ID, alias, base[alias], got[alias])
				}
			}
		}
	}
}
