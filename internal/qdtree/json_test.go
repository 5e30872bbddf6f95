package qdtree

import (
	"encoding/json"
	"testing"

	"mto/internal/induce"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

func TestTreeJSONRoundTrip(t *testing.T) {
	// Build a tree mixing simple and induced cuts, round-trip it, and
	// verify routing equivalence.
	ds := starDataset(t, 100, 100, 11)
	fact := ds.Table("fact")
	var qs []*workload.Query
	for k := int64(0); k < 10; k++ {
		qs = append(qs, starQuery("q"+string(rune('0'+k)), k))
	}
	// Add simple-filter queries so the tree mixes cut kinds.
	vq := workload.NewQuery("v", workload.TableRef{Table: "fact"})
	vq.Filter("fact", predicate.NewComparison("v", predicate.Lt, value.Int(100)))
	vq.Weight = 25 // ensure the greedy build also picks simple cuts
	qs = append(qs, vq)
	vq2 := workload.NewQuery("v2", workload.TableRef{Table: "fact"})
	vq2.Filter("fact", predicate.NewAnd(
		predicate.NewComparison("v", predicate.Ge, value.Int(400)),
		predicate.NewComparison("v", predicate.Le, value.Int(600)),
	))
	vq2.Weight = 25
	qs = append(qs, vq2)
	w := workload.NewWorkload(qs...)

	unique := func(tbl, col string) bool { return tbl == "dim" && col == "id" }
	byTarget := induce.FromWorkload(w, unique, 4)
	var cuts []Cut
	for _, ip := range byTarget["fact"] {
		if err := induce.EvaluateAll(ds, []*induce.Predicate{ip}, 1); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, NewInducedCut(ip))
	}
	cuts = append(cuts,
		NewSimpleCut(predicate.NewComparison("v", predicate.Lt, value.Int(100))),
		NewSimpleCut(predicate.NewAnd(
			predicate.NewComparison("v", predicate.Ge, value.Int(400)),
			predicate.NewComparison("v", predicate.Le, value.Int(600)),
		)),
	)
	tree, err := Build(fact, BuildQueries(w, "fact"), cuts, Config{
		Table: "fact", BlockSize: 500, SampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Stats().InducedCuts == 0 || tree.Stats().TotalCuts == tree.Stats().InducedCuts {
		t.Fatalf("want a mixed tree, got %+v", tree.Stats())
	}

	raw, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTree(raw, ds)
	if err != nil {
		t.Fatal(err)
	}
	// Induced cuts come back unevaluated.
	for _, ic := range got.InducedCuts() {
		if ic.Ind.Evaluated() {
			t.Fatal("literal cuts should not be persisted")
		}
		if err := induce.EvaluateAll(ds, []*induce.Predicate{ic.Ind}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got.Table != tree.Table || got.BlockSize != tree.BlockSize {
		t.Error("metadata lost")
	}
	if got.Dump() != tree.Dump() {
		t.Errorf("structure differs:\n%s\nvs\n%s", got.Dump(), tree.Dump())
	}
	// Record assignment identical.
	a, b := tree.AssignRecords(fact), got.AssignRecords(fact)
	if len(a) != len(b) {
		t.Fatal("leaf counts differ")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("leaf %d sizes differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("leaf %d row %d differs", i, j)
			}
		}
	}
	// Query routing identical (regions were rebuilt).
	for _, q := range qs {
		x, y := tree.RouteQuery(q), got.RouteQuery(q)
		if len(x) != len(y) {
			t.Fatalf("%s: routes differ: %v vs %v", q.ID, x, y)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: routes differ: %v vs %v", q.ID, x, y)
			}
		}
	}
}

func TestUnmarshalTreeErrors(t *testing.T) {
	ds := relation.NewDataset()
	ds.MustAddTable(relation.NewTable(relation.MustSchema("t", relation.Column{Name: "x", Type: value.KindInt})))
	cases := []string{
		`{"table":"u","root":{}}`, // a table ds lacks
		`{`,
		`{"version":1}`,
		`{"table":"","root":{}}`,
		`{"table":"t","root":{"cut":{"kind":"nope"},"l":{},"r":{}}}`,
		`{"table":"t","root":{"cut":{"kind":"simple","pred":{"t":"???"}},"l":{},"r":{}}}`,
		`{"table":"t","root":{"cut":{"kind":"induced","src":{"t":"const","b":true}},"l":{},"r":{}}}`,
		`{"table":"t","root":{"cut":{"kind":"simple","pred":{"t":"const","b":true}}}}`,
	}
	for _, c := range cases {
		if _, err := UnmarshalTree([]byte(c), ds); err == nil {
			t.Errorf("accepted malformed document: %s", c)
		}
	}
}
