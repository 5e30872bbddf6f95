package induce

import (
	"strings"
	"testing"

	"mto/internal/joingraph"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// buildCBADataset reproduces the paper's Table 1 running example: a chain
// C →CKEY B →BKEY A where C is the dimension-most table.
func buildCBADataset(t *testing.T) *relation.Dataset {
	t.Helper()
	ds := relation.NewDataset()

	c := relation.NewTable(relation.MustSchema("C",
		relation.Column{Name: "ckey", Type: value.KindInt, Unique: true},
		relation.Column{Name: "z", Type: value.KindInt},
	))
	// ckey 1..5, z = 100*ckey → z > 200 selects ckeys {3,4,5}.
	for i := int64(1); i <= 5; i++ {
		c.MustAppendRow(value.Int(i), value.Int(100*i))
	}

	b := relation.NewTable(relation.MustSchema("B",
		relation.Column{Name: "bkey", Type: value.KindInt, Unique: true},
		relation.Column{Name: "ckey", Type: value.KindInt},
	))
	// bkey 1..10 references ckey = (bkey mod 5) + 1.
	for i := int64(1); i <= 10; i++ {
		b.MustAppendRow(value.Int(i), value.Int(i%5+1))
	}

	a := relation.NewTable(relation.MustSchema("A",
		relation.Column{Name: "akey", Type: value.KindInt, Unique: true},
		relation.Column{Name: "bkey", Type: value.KindInt},
	))
	// akey 1..20 references bkey = (akey mod 10) + 1.
	for i := int64(1); i <= 20; i++ {
		a.MustAppendRow(value.Int(i), value.Int(i%10+1))
	}

	ds.MustAddTable(c)
	ds.MustAddTable(b)
	ds.MustAddTable(a)
	return ds
}

func cbaPath() joingraph.Path {
	return joingraph.Path{Hops: []joingraph.Hop{
		{FromTable: "C", FromColumn: "ckey", ToTable: "B", ToColumn: "ckey", Type: workload.InnerJoin},
		{FromTable: "B", FromColumn: "bkey", ToTable: "A", ToColumn: "bkey", Type: workload.InnerJoin},
	}}
}

func TestEvaluateChain(t *testing.T) {
	ds := buildCBADataset(t)
	ip := New(cbaPath(), predicate.NewComparison("z", predicate.Gt, value.Int(200)))
	if ip.Evaluated() {
		t.Fatal("fresh predicate should be unevaluated")
	}
	if err := ip.Evaluate(ds); err != nil {
		t.Fatal(err)
	}
	if !ip.Evaluated() {
		t.Fatal("Evaluate did not materialize")
	}
	// z > 200 → ckeys {3,4,5} → B rows with ckey∈{3,4,5}: bkeys where
	// bkey%5+1 ∈ {3,4,5} → bkey ∈ {2,3,4,7,8,9}.
	wantB := map[int64]bool{2: true, 3: true, 4: true, 7: true, 8: true, 9: true}
	if ip.LiteralSize() != len(wantB) {
		t.Fatalf("literal size = %d, want %d", ip.LiteralSize(), len(wantB))
	}
	// Rows of A whose bkey is in the set match.
	a := ds.Table("A")
	all := make([]uint64, (a.NumRows()+63)/64)
	ip.FillMask(a, nil, all)
	rev := make([]int32, a.NumRows()) // the row-list form, rows reversed
	for k := range rev {
		rev[k] = int32(a.NumRows() - 1 - k)
	}
	list := make([]uint64, (a.NumRows()+63)/64)
	ip.FillMask(a, rev, list)
	for r := 0; r < a.NumRows(); r++ {
		bkey := a.ValueByName(r, "bkey").Int()
		want := wantB[bkey]
		if got := ip.MatchesRow(a, r); got != want {
			t.Errorf("row %d (bkey=%d) MatchesRow = %v, want %v", r, bkey, got, want)
		}
		if got := all[r>>6]>>(uint(r)&63)&1 == 1; got != want {
			t.Errorf("row %d FillMask = %v, want %v", r, got, want)
		}
		if k := a.NumRows() - 1 - r; list[k>>6]>>(uint(k)&63)&1 == 1 != want {
			t.Errorf("row %d FillMask over a row list = %v, want %v", r, !want, want)
		}
	}
	if ip.Target() != "A" || ip.TargetColumn() != "bkey" || ip.Depth() != 2 {
		t.Error("metadata wrong")
	}
	if ip.MemBytes() <= 0 {
		t.Error("MemBytes should be positive")
	}
}

func TestStringRendersNestedSubqueries(t *testing.T) {
	ip := New(cbaPath(), predicate.NewComparison("z", predicate.Gt, value.Int(200)))
	s := ip.String()
	want := "A.bkey IN (SELECT B.bkey FROM B WHERE B.ckey IN (SELECT C.ckey FROM C WHERE z > 200))"
	if s != want {
		t.Errorf("String =\n%q\nwant\n%q", s, want)
	}
}

func TestCA(t *testing.T) {
	ip := New(cbaPath(), predicate.True())
	if got := ip.CA(0.1); got < 0.0099 || got > 0.0101 {
		t.Errorf("CA(0.1) depth 2 = %g, want ≈0.01", got)
	}
	one := New(joingraph.Path{Hops: cbaPath().Hops[:1]}, predicate.True())
	if got := one.CA(0.1); got != 0.1 {
		t.Errorf("CA(0.1) depth 1 = %g", got)
	}
}

func TestUnevaluatedPanics(t *testing.T) {
	ip := New(cbaPath(), predicate.True())
	defer func() {
		if recover() == nil {
			t.Error("literal access before Evaluate should panic")
		}
	}()
	ip.MatchesRow(relation.NewTable(relation.MustSchema("A",
		relation.Column{Name: "bkey", Type: value.KindInt})), 0)
}

func TestEvaluateErrors(t *testing.T) {
	ds := buildCBADataset(t)
	badSrc := New(joingraph.Path{Hops: []joingraph.Hop{
		{FromTable: "ZZZ", FromColumn: "k", ToTable: "A", ToColumn: "bkey"},
	}}, predicate.True())
	if err := badSrc.Evaluate(ds); err == nil {
		t.Error("missing source accepted")
	}
	badCol := New(joingraph.Path{Hops: []joingraph.Hop{
		{FromTable: "C", FromColumn: "nope", ToTable: "B", ToColumn: "ckey"},
	}}, predicate.True())
	if err := badCol.Evaluate(ds); err == nil {
		t.Error("missing source column accepted")
	}
	badMid := New(joingraph.Path{Hops: []joingraph.Hop{
		{FromTable: "C", FromColumn: "ckey", ToTable: "B", ToColumn: "ckey"},
		{FromTable: "ZZZ", FromColumn: "bkey", ToTable: "A", ToColumn: "bkey"},
	}}, predicate.True())
	if err := badMid.Evaluate(ds); err == nil {
		t.Error("missing intermediate table accepted")
	}
}

func TestApplyInsert(t *testing.T) {
	// Mirrors Fig. 9: inserting into the middle table B extends the
	// literal cut on A without touching other stages.
	ds := buildCBADataset(t)
	ip := New(cbaPath(), predicate.NewComparison("z", predicate.Gt, value.Int(200)))
	if err := ip.Evaluate(ds); err != nil {
		t.Fatal(err)
	}
	sizeBefore := ip.LiteralSize()

	b := ds.Table("B")
	// New B rows: bkey=11 references ckey=3 (selected), bkey=12 references
	// ckey=1 (not selected).
	b.MustAppendRow(value.Int(11), value.Int(3))
	b.MustAppendRow(value.Int(12), value.Int(1))
	if err := ip.ApplyInsert(ds, "B", []int{10, 11}); err != nil {
		t.Fatal(err)
	}
	if got := ip.LiteralSize(); got != sizeBefore+1 {
		t.Errorf("literal size after insert = %d, want %d", got, sizeBefore+1)
	}
	// A row referencing bkey=11 now matches.
	a := ds.Table("A")
	a.MustAppendRow(value.Int(21), value.Int(11))
	if !ip.MatchesRow(a, a.NumRows()-1) {
		t.Error("new A row referencing inserted B key should match")
	}

	// Inserting into the source table C.
	c := ds.Table("C")
	c.MustAppendRow(value.Int(6), value.Int(600)) // satisfies z > 200
	if err := ip.ApplyInsert(ds, "C", []int{5}); err != nil {
		t.Fatal(err)
	}
	// No B row references ckey=6 yet (referential integrity), so the
	// literal cut is unchanged.
	if got := ip.LiteralSize(); got != sizeBefore+1 {
		t.Errorf("literal size after source insert = %d", got)
	}
	// Changes to tables off the path (the target) are no-ops.
	if err := ip.ApplyInsert(ds, "A", []int{0}); err != nil {
		t.Error("target-table insert should be a no-op, got", err)
	}
	// Out-of-range rows error.
	if err := ip.ApplyInsert(ds, "B", []int{999}); err == nil {
		t.Error("out-of-range row accepted")
	}
	// Unevaluated predicates reject incremental updates.
	fresh := New(cbaPath(), predicate.True())
	if err := fresh.ApplyInsert(ds, "B", nil); err == nil {
		t.Error("unevaluated ApplyInsert accepted")
	}
}

func TestApplyDelete(t *testing.T) {
	ds := buildCBADataset(t)
	ip := New(cbaPath(), predicate.NewComparison("z", predicate.Gt, value.Int(200)))
	if err := ip.Evaluate(ds); err != nil {
		t.Fatal(err)
	}
	a := ds.Table("A")
	// Row of A referencing bkey=2 currently matches.
	var rowBkey2 = -1
	for r := 0; r < a.NumRows(); r++ {
		if a.ValueByName(r, "bkey").Int() == 2 {
			rowBkey2 = r
			break
		}
	}
	if rowBkey2 < 0 || !ip.MatchesRow(a, rowBkey2) {
		t.Fatal("setup: expected bkey=2 to match")
	}
	// Delete the B row with bkey=2 (B row index 1 has bkey=2).
	b := ds.Table("B")
	if b.ValueByName(1, "bkey").Int() != 2 {
		t.Fatal("setup: B row 1 should have bkey=2")
	}
	if err := ip.ApplyDelete(ds, "B", []int{1}); err != nil {
		t.Fatal(err)
	}
	if ip.MatchesRow(a, rowBkey2) {
		t.Error("deleted B key should no longer match")
	}
}

func TestAffectedBy(t *testing.T) {
	ds := buildCBADataset(t)
	ip := New(cbaPath(), predicate.True())
	if ip.AffectedBy("B") {
		t.Error("unevaluated predicate should not report affected")
	}
	if err := ip.Evaluate(ds); err != nil {
		t.Fatal(err)
	}
	if !ip.AffectedBy("C") || !ip.AffectedBy("B") {
		t.Error("path tables should affect the cut")
	}
	if ip.AffectedBy("A") {
		t.Error("the target table does not affect its own cut")
	}
	if ip.AffectedBy("other") {
		t.Error("unrelated tables should not affect")
	}
}

// TestApplyChangeSelfJoinUpdatesAllStages is the regression for incremental
// maintenance on paths where one base table occupies several stages: a
// self-join maps two aliases to the same base table (joingraph only forbids
// revisiting an alias), so a data change to it must update every matching
// stage, not just the first.
func TestApplyChangeSelfJoinUpdatesAllStages(t *testing.T) {
	ds := relation.NewDataset()
	emp := relation.NewTable(relation.MustSchema("emp",
		relation.Column{Name: "id", Type: value.KindInt, Unique: true},
		relation.Column{Name: "mgr", Type: value.KindInt},
		relation.Column{Name: "sal", Type: value.KindInt},
	))
	// ids 1..6; 1..3 are managers (mgr=0), 4..6 report to 1..3; managers 2
	// and 3 earn > 100.
	for i := int64(1); i <= 3; i++ {
		emp.MustAppendRow(value.Int(i), value.Int(0), value.Int(50+50*i))
	}
	for i := int64(4); i <= 6; i++ {
		emp.MustAppendRow(value.Int(i), value.Int(i-3), value.Int(10))
	}
	task := relation.NewTable(relation.MustSchema("task",
		relation.Column{Name: "tid", Type: value.KindInt, Unique: true},
		relation.Column{Name: "eid", Type: value.KindInt},
	))
	for i := int64(1); i <= 6; i++ {
		task.MustAppendRow(value.Int(i), value.Int(i))
	}
	ds.MustAddTable(emp)
	ds.MustAddTable(task)

	// "task.eid IN (employees whose manager earns > 100)": emp appears as
	// the scanned table of both stage 0 (as the manager alias) and stage 1
	// (as the report alias).
	path := joingraph.Path{Hops: []joingraph.Hop{
		{FromTable: "emp", FromColumn: "id", ToTable: "emp", ToColumn: "mgr", Type: workload.InnerJoin},
		{FromTable: "emp", FromColumn: "id", ToTable: "task", ToColumn: "eid", Type: workload.InnerJoin},
	}}
	cut := predicate.NewComparison("sal", predicate.Gt, value.Int(100))
	ip := New(path, cut)
	if err := ip.Evaluate(ds); err != nil {
		t.Fatal(err)
	}
	// Managers 2,3 match the cut → reports 5,6 form the literal.
	if ip.LiteralSize() != 2 {
		t.Fatalf("setup literal = %d, want 2", ip.LiteralSize())
	}

	// Insert a new high-earning manager and, in the same batch, a report
	// referencing it. Both stages must pick the change up: stage 0 gains
	// id 7, stage 1 (probing the already-updated stage 0) gains id 8.
	emp.MustAppendRow(value.Int(7), value.Int(0), value.Int(500))
	emp.MustAppendRow(value.Int(8), value.Int(7), value.Int(10))
	rows := []int{emp.NumRows() - 2, emp.NumRows() - 1}
	if err := ip.ApplyInsert(ds, "emp", rows); err != nil {
		t.Fatal(err)
	}
	fresh := New(path, cut)
	if err := fresh.Evaluate(ds); err != nil {
		t.Fatal(err)
	}
	if ip.LiteralSize() != fresh.LiteralSize() {
		t.Fatalf("after insert: incremental literal = %d, full re-eval = %d",
			ip.LiteralSize(), fresh.LiteralSize())
	}
	for k := int64(1); k <= 10; k++ {
		if ip.literal().containsInt(k) != fresh.literal().containsInt(k) {
			t.Errorf("after insert: membership differs at key %d", k)
		}
	}

	// Deleting the same batch must restore the original literal: stage 1
	// is shrunk first (while stage 0 still holds the deleted manager), then
	// stage 0.
	if err := ip.ApplyDelete(ds, "emp", rows); err != nil {
		t.Fatal(err)
	}
	if ip.LiteralSize() != 2 || !ip.literal().containsInt(5) || !ip.literal().containsInt(6) {
		t.Errorf("after delete: literal = %d, want the original {5, 6}", ip.LiteralSize())
	}
}

// TestUnsupportedJoinColumnKind pins the keySet kind contract: evaluation
// rejects float join columns loudly instead of silently producing an empty
// (and therefore wrong) literal cut.
func TestUnsupportedJoinColumnKind(t *testing.T) {
	ds := relation.NewDataset()
	src := relation.NewTable(relation.MustSchema("src",
		relation.Column{Name: "fk", Type: value.KindFloat, Unique: true},
		relation.Column{Name: "x", Type: value.KindInt},
	))
	src.MustAppendRow(value.Float(1.5), value.Int(1))
	fact := relation.NewTable(relation.MustSchema("fact",
		relation.Column{Name: "fk", Type: value.KindFloat},
	))
	fact.MustAppendRow(value.Float(1.5))
	ds.MustAddTable(src)
	ds.MustAddTable(fact)

	path := joingraph.Path{Hops: []joingraph.Hop{
		{FromTable: "src", FromColumn: "fk", ToTable: "fact", ToColumn: "fk", Type: workload.InnerJoin},
	}}
	ip := New(path, predicate.NewComparison("x", predicate.Eq, value.Int(1)))
	scalarErr := ip.Evaluate(ds)
	if scalarErr == nil || !strings.Contains(scalarErr.Error(), "unsupported float join column src.fk") {
		t.Fatalf("scalar Evaluate error = %v, want unsupported-kind error", scalarErr)
	}
	if ip.Evaluated() {
		t.Error("failed Evaluate should not report evaluated")
	}
	batchErr := EvaluateAll(ds, []*Predicate{New(path, ip.SourceCut)}, 2)
	if batchErr == nil || batchErr.Error() != scalarErr.Error() {
		t.Errorf("batched error %v, scalar error %v", batchErr, scalarErr)
	}
}

func TestKeySetOverflowAndStrings(t *testing.T) {
	s := newKeySet()
	s.addInt(5)
	s.addInt(-7)      // below bitmap range
	s.addInt(1 << 40) // above bitmap range
	s.addStr("x")
	s.add(value.Null)     // ignored
	s.add(value.Float(1)) // ignored (join keys are int/string)
	if !s.containsInt(5) || !s.containsInt(-7) || !s.containsInt(1<<40) || !s.containsStr("x") {
		t.Error("membership wrong")
	}
	if s.contains(value.Null) || s.contains(value.Float(1)) {
		t.Error("null/float membership should be false")
	}
	if s.card() != 4 {
		t.Errorf("card = %d", s.card())
	}
	s.removeInt(-7)
	s.removeInt(5)
	s.removeStr("x")
	s.remove(value.Int(1 << 40))
	s.remove(value.Float(3)) // no-op
	if s.card() != 0 {
		t.Errorf("card after removes = %d", s.card())
	}
	if s.memBytes() < 0 {
		t.Error("memBytes negative")
	}
}

func TestFromWorkload(t *testing.T) {
	// Two-table star: dim(id unique) → fact(did).
	q1 := workload.NewQuery("q1",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q1.AddJoin("dim", "id", "fact", "did")
	q1.Filter("dim", predicate.NewComparison("x", predicate.Lt, value.Int(100)))
	q1.Filter("fact", predicate.NewComparison("y", predicate.Gt, value.Int(200)))

	// Second query repeats one predicate (dedup) and adds a new one.
	q2 := workload.NewQuery("q2",
		workload.TableRef{Table: "dim"},
		workload.TableRef{Table: "fact"},
	)
	q2.AddJoin("dim", "id", "fact", "did")
	q2.Filter("dim", predicate.NewAnd(
		predicate.NewComparison("x", predicate.Lt, value.Int(100)),
		predicate.NewComparison("w", predicate.Eq, value.Int(1)),
	))

	unique := func(table, col string) bool { return table == "dim" && col == "id" }
	w := workload.NewWorkload(q1, q2)
	byTarget := FromWorkload(w, unique, 4)

	// Only fact receives induced predicates (fact.did is not unique).
	if len(byTarget["dim"]) != 0 {
		t.Errorf("dim received induced predicates: %v", byTarget["dim"])
	}
	// fact gets: x<100 (deduped across q1,q2) and w=1 → 2 predicates.
	if len(byTarget["fact"]) != 2 {
		t.Fatalf("fact predicates = %d: %v", len(byTarget["fact"]), byTarget["fact"])
	}
	for _, ip := range byTarget["fact"] {
		if ip.Target() != "fact" || ip.TargetColumn() != "did" {
			t.Errorf("bad induced predicate %s", ip)
		}
		if !strings.Contains(ip.String(), "SELECT dim.id FROM dim") {
			t.Errorf("logical form wrong: %s", ip)
		}
	}
}
