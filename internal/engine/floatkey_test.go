package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// floatStarDS builds dim(id float, attr int) + fact(fid int, did float,
// v int, d int) + ints(k int). dim.id holds NULL, NaN, -0 and +0, ±Inf, a
// duplicate and half-step values; fact.did draws from dim.id's values
// (so every special reaches the fact side) plus keys dim never holds.
// ints.k is an int column joined to the float fact.did: an int key never
// equals a float one.
func floatStarDS(t *testing.T) *relation.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	const dims = 200
	ids := make([]value.Value, dims)
	for i := range ids {
		ids[i] = value.Float(float64(i) / 2)
	}
	ids[0], ids[1], ids[2], ids[3] = value.Null, value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Float(0)
	ids[4], ids[5], ids[6] = value.Float(math.Inf(1)), value.Float(math.Inf(-1)), ids[20]
	dim := relation.NewTable(relation.MustSchema("dim",
		relation.Column{Name: "id", Type: value.KindFloat},
		relation.Column{Name: "attr", Type: value.KindInt},
	))
	for i, id := range ids {
		dim.MustAppendRow(id, value.Int(int64(i%10)))
	}
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "did", Type: value.KindFloat},
		relation.Column{Name: "v", Type: value.KindInt},
		relation.Column{Name: "d", Type: value.KindInt},
	))
	for i := 0; i < 6000; i++ {
		did := ids[rng.Intn(dims)]
		if rng.Intn(10) == 0 {
			did = value.Float(float64(dims+rng.Intn(50)) + 0.25) // in no dim row
		}
		fact.MustAppendRow(value.Int(int64(i)), did, value.Int(int64(rng.Intn(1000))), value.Int(int64(i/100)))
	}
	ints := relation.NewTable(relation.MustSchema("ints", relation.Column{Name: "k", Type: value.KindInt}))
	for i := 0; i < 100; i++ {
		ints.MustAppendRow(value.Int(int64(i)))
	}
	ds := relation.NewDataset()
	ds.MustAddTable(dim)
	ds.MustAddTable(fact)
	ds.MustAddTable(ints)
	return ds
}

// floatKeyQueries joins dim to fact on the float key with every join type,
// under dim filters that keep specials, drop them, or keep nothing, each
// with fact aggregates; plus the int↔float edge and a fact GROUP BY on the
// float key.
func floatKeyQueries() []*workload.Query {
	filters := map[string]predicate.Predicate{
		"attr<3":   predicate.NewComparison("attr", predicate.Lt, value.Int(3)),
		"id>=40.5": predicate.NewComparison("id", predicate.Ge, value.Float(40.5)),
		"id=0":     predicate.NewComparison("id", predicate.Eq, value.Float(0)),
		"none":     predicate.NewComparison("attr", predicate.Gt, value.Int(100)),
		"all":      nil,
	}
	var qs []*workload.Query
	for _, typ := range []workload.JoinType{workload.InnerJoin, workload.SemiJoin,
		workload.LeftAntiSemiJoin, workload.RightAntiSemiJoin,
		workload.LeftOuterJoin, workload.RightOuterJoin, workload.FullOuterJoin} {
		for name, f := range filters {
			q := workload.NewQuery(fmt.Sprintf("%s/%s", typ, name),
				workload.TableRef{Table: "dim"}, workload.TableRef{Table: "fact"})
			q.AddTypedJoin(workload.Join{Left: "dim", LeftColumn: "id", Right: "fact", RightColumn: "did", Type: typ})
			if f != nil {
				q.Filter("dim", f)
			}
			q.Aggregate(workload.AggCount, "fact", "").Aggregate(workload.AggSum, "fact", "v").
				Aggregate(workload.AggMin, "fact", "did").Aggregate(workload.AggMax, "fact", "did")
			qs = append(qs, q)
		}
	}
	mixed := workload.NewQuery("int-float",
		workload.TableRef{Table: "ints"}, workload.TableRef{Table: "fact"}, workload.TableRef{Table: "dim"})
	mixed.AddJoin("ints", "k", "fact", "did")
	mixed.AddJoin("dim", "id", "fact", "did")
	mixed.Aggregate(workload.AggCount, "fact", "")
	grouped := workload.NewQuery("group-did", workload.TableRef{Table: "dim"}, workload.TableRef{Table: "fact"})
	grouped.AddJoin("dim", "id", "fact", "did")
	grouped.Filter("dim", filters["attr<3"])
	grouped.Aggregate(workload.AggCount, "fact", "").Aggregate(workload.AggSum, "fact", "v")
	grouped.GroupByCol("fact", "did")
	return append(qs, mixed, grouped)
}

// sameResult is reflect.DeepEqual on two Results with the aggregates
// compared bit for bit, so NaN equals NaN and -0 differs from +0.
func sameResult(a, b *Result) bool {
	ca, cb := *a, *b
	ca.Aggregates, cb.Aggregates = nil, nil
	return reflect.DeepEqual(ca, cb) && reflect.DeepEqual(exactAggs(a.Aggregates), exactAggs(b.Aggregates))
}

// TestKernelIdentityFloatKeys pins Execute to ExecuteReference on the
// whole Result — blocks read per stage, reducers and join probes (through
// Seconds), survivors and aggregates — for float join keys under every
// engine option set: plain, semi-join reduction, diPs, and a secondary
// index on the float column, over a layout clustered on the float key and
// one that scatters it.
func TestKernelIdentityFloatKeys(t *testing.T) {
	ds := floatStarDS(t)
	withDiPs := CloudDWOptions()
	withDiPs.DiPs = true
	si := DefaultOptions()
	si.SecondaryIndexes = map[string]string{"fact": "did"}
	siSemi := CloudDWOptions()
	siSemi.SecondaryIndexes = map[string]string{"fact": "did", "dim": "id"}
	options := map[string]Options{
		"default": DefaultOptions(), "cloudDW": CloudDWOptions(), "cloudDW+diPs": withDiPs,
		"si": si, "si+cloudDW": siSemi,
	}
	pruned := map[string]bool{}
	for _, sortKey := range []string{"did", "v"} {
		d, err := layout.SortKeyDesign(ds, layout.SortKeys{"fact": sortKey, "dim": "id"}, 250)
		if err != nil {
			t.Fatal(err)
		}
		store := colstore.NewMemStore(block.DefaultCostModel())
		if _, err := d.Install(store, nil, 0); err != nil {
			t.Fatal(err)
		}
		for name, opts := range options {
			e := New(store, d, ds, opts)
			for _, q := range floatKeyQueries() {
				got, err := e.Execute(q)
				if err != nil {
					t.Fatalf("fact by %s/%s/%s: kernel: %v", sortKey, name, q.ID, err)
				}
				want, err := e.ExecuteReference(q)
				if err != nil {
					t.Fatalf("fact by %s/%s/%s: reference: %v", sortKey, name, q.ID, err)
				}
				if !sameResult(got, want) {
					t.Errorf("fact by %s/%s/%s: kernel diverges from reference:\n got %+v\nwant %+v",
						sortKey, name, q.ID, got, want)
				}
				if fa := got.PerTable["fact"]; fa.BlocksRead < fa.AfterDiPs {
					pruned[name] = true
				}
			}
		}
	}
	// Runtime pruning on the float key must have dropped blocks, or the
	// identity above holds trivially.
	for _, name := range []string{"cloudDW", "si", "si+cloudDW"} {
		if !pruned[name] {
			t.Errorf("%s: no query pruned a fact block at run time", name)
		}
	}
}
