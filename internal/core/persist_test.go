package core

import (
	"strings"
	"testing"

	"mto/internal/block/blocktest"
	"mto/internal/engine"
	"mto/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := starDS(t, 500, 20000, 21)
	w := attrWorkload(10)
	opt, err := Optimize(ds, w, Options{
		BlockSize:     1000,
		JoinInduction: true,
		LeafOrderKeys: map[string]string{"fact": "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Options().BlockSize != 1000 {
		t.Error("Options accessor wrong")
	}
	var buf strings.Builder
	if err := opt.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(strings.NewReader(buf.String()), ds, w)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != "MTO" || loaded.Options().BlockSize != 1000 {
		t.Error("options not restored")
	}
	if loaded.Options().LeafOrderKeys["fact"] != "d" {
		t.Error("leaf order keys not restored")
	}
	if loaded.Stats() != opt.Stats() {
		t.Errorf("stats differ: %+v vs %+v", loaded.Stats(), opt.Stats())
	}
	// Identical designs: same groups, same routing, same blocks per query.
	d1, err := opt.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := install(t, d1), install(t, d2)
	e1 := engine.New(s1, d1, ds, engine.DefaultOptions())
	e2 := engine.New(s2, d2, ds, engine.DefaultOptions())
	for _, q := range w.Queries {
		r1, err := e1.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if r1.BlocksRead != r2.BlocksRead {
			t.Errorf("%s: %d vs %d blocks after load", q.ID, r1.BlocksRead, r2.BlocksRead)
		}
	}
	// A loaded optimizer still supports dynamic data.
	fact := ds.Table("fact")
	fact.MustAppendRow(fact.Row(0)...)
	if _, err := loaded.ApplyInsert("fact", []int{fact.NumRows() - 1}, d2, s2); err != nil {
		t.Fatal(err)
	}
}

func TestLoadReflectsDataChanges(t *testing.T) {
	// Literal cuts are rebuilt against the dataset at load time, so a
	// layout saved before an insert routes the new records correctly.
	ds := starDS(t, 200, 5000, 22)
	w := attrWorkload(5)
	opt, err := Optimize(ds, w, Options{BlockSize: 500, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := opt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// New dim rows appear between save and load.
	dim := ds.Table("dim")
	dim.MustAppendRow(dim.Row(0)...)
	loaded, err := Load(strings.NewReader(buf.String()), ds, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []string{"dim", "fact"} {
		for _, ic := range loaded.Tree(tree).InducedCuts() {
			if !ic.Ind.Evaluated() {
				t.Fatal("induced cuts not re-evaluated on load")
			}
		}
	}
	design, err := loaded.BuildDesign()
	if err != nil {
		t.Fatal(err)
	}
	blocktest.ReadLayout(t, install(t, design), "dim")
}

func TestLoadErrors(t *testing.T) {
	ds := starDS(t, 50, 500, 23)
	w := attrWorkload(2)
	opt, err := Optimize(ds, w, Options{BlockSize: 100, JoinInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := opt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	if _, err := Load(strings.NewReader("{"), ds, w); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":2}`), ds, w); err == nil {
		t.Error("future version accepted")
	}
	// Layout for a different dataset is rejected.
	other := starDS(t, 10, 100, 24)
	otherOnly := strings.Replace(saved, `"table":"dim"`, `"table":"zzz"`, 1)
	if _, err := Load(strings.NewReader(otherOnly), other, w); err == nil {
		t.Error("layout with unknown table accepted")
	}
	// nil workload is tolerated.
	loaded, err := Load(strings.NewReader(saved), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Workload() == nil {
		t.Error("nil workload should default to empty")
	}
	_ = workload.NewWorkload()
}
