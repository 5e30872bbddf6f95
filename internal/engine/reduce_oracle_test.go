package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/colstore"
	"mto/internal/layout"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// fixpointOracle is semantic reduction as two separate fixpoint drivers
// once ran it: every edge, in declaration order, reduces each side it may
// shrink by the other side's keys as of the edge's start, and the passes
// repeat until one changes nothing or maxReductionPasses. A full outer
// edge reduces nothing and is charged on pass 0 only. Returns the join
// probes charged.
func fixpointOracle(e *Engine, q *workload.Query, aliases map[string]*aliasState) int {
	probes := 0
	for pass := 0; pass < maxReductionPasses; pass++ {
		changed := false
		for _, j := range q.Joins {
			l, r := aliases[j.Left], aliases[j.Right]
			lt, rt := e.ds.Table(q.BaseTable(j.Left)), e.ds.Table(q.BaseTable(j.Right))
			lc, lok := lt.Schema().ColumnIndex(j.LeftColumn)
			rc, rok := rt.Schema().ColumnIndex(j.RightColumn)
			if !lok || !rok {
				continue
			}
			switch j.Type {
			case workload.InnerJoin, workload.SemiJoin:
				lk := keysOf(lt, l.rows, lc)
				rk := keysOf(rt, r.rows, rc)
				probes += len(l.rows) + len(r.rows)
				changed = reduceTo(l, lt, lc, rk, false) || changed
				changed = reduceTo(r, rt, rc, lk, false) || changed
			case workload.LeftOuterJoin:
				probes += len(r.rows)
				changed = reduceTo(r, rt, rc, keysOf(lt, l.rows, lc), false) || changed
			case workload.RightOuterJoin:
				probes += len(l.rows)
				changed = reduceTo(l, lt, lc, keysOf(rt, r.rows, rc), false) || changed
			case workload.LeftAntiSemiJoin:
				probes += len(l.rows)
				changed = reduceTo(l, lt, lc, keysOf(rt, r.rows, rc), true) || changed
			case workload.RightAntiSemiJoin:
				probes += len(r.rows)
				changed = reduceTo(r, rt, rc, keysOf(lt, l.rows, lc), true) || changed
			case workload.FullOuterJoin:
				if pass == 0 {
					probes += len(l.rows) + len(r.rows)
				}
			}
		}
		if !changed {
			break
		}
	}
	return probes
}

var allJoinTypes = []workload.JoinType{workload.InnerJoin, workload.SemiJoin,
	workload.LeftOuterJoin, workload.RightOuterJoin, workload.FullOuterJoin,
	workload.LeftAntiSemiJoin, workload.RightAntiSemiJoin}

// randomGraphDS builds tables t0..t2 of 1 to 200 rows with int columns k0
// and k1 drawn from 0..5, a fifth of them NULL. Past 64 rows a survivor
// set spans words, so the kernels, on self edges too, rewrite a target of
// several words.
func randomGraphDS(rng *rand.Rand) *relation.Dataset {
	ds := relation.NewDataset()
	for i := 0; i < 3; i++ {
		tbl := relation.NewTable(relation.MustSchema(fmt.Sprintf("t%d", i),
			relation.Column{Name: "k0", Type: value.KindInt},
			relation.Column{Name: "k1", Type: value.KindInt},
		))
		key := func() value.Value {
			if rng.Intn(5) == 0 {
				return value.Null
			}
			return value.Int(int64(rng.Intn(6)))
		}
		for n := 1 + rng.Intn(200); n > 0; n-- {
			tbl.MustAppendRow(key(), key())
		}
		ds.MustAddTable(tbl)
	}
	return ds
}

// randomGraphQuery draws 1 to 5 aliases over ds's tables, each filtered
// half the time, and up to 6 edges of any join type between any two of
// them — an alias and itself, and a pair already joined, included.
func randomGraphQuery(rng *rand.Rand, id string) *workload.Query {
	n := 1 + rng.Intn(5)
	refs := make([]workload.TableRef, n)
	for i := range refs {
		refs[i] = workload.TableRef{Table: fmt.Sprintf("t%d", rng.Intn(3)), Alias: fmt.Sprintf("a%d", i)}
	}
	q := workload.NewQuery(id, refs...)
	col := func() string { return fmt.Sprintf("k%d", rng.Intn(2)) }
	for _, r := range refs {
		if rng.Intn(2) == 0 {
			q.Filter(r.Alias, predicate.NewComparison(col(), predicate.Lt, value.Int(int64(1+rng.Intn(5)))))
		}
	}
	for k := rng.Intn(7); k > 0; k-- {
		l, r := rng.Intn(n), rng.Intn(n)
		if r == l && rng.Intn(4) != 0 {
			r = (l + 1) % n // a self edge one time in four
		}
		q.AddTypedJoin(workload.Join{
			Left: refs[l].Alias, LeftColumn: col(),
			Right: refs[r].Alias, RightColumn: col(),
			Type: allJoinTypes[rng.Intn(len(allJoinTypes))],
		})
	}
	return q
}

// filteredRows returns each alias's rows that pass its filter: the row
// sets reduction starts from.
func filteredRows(ds *relation.Dataset, q *workload.Query) map[string][]int32 {
	out := map[string][]int32{}
	for _, alias := range q.Aliases() {
		tbl := ds.Table(q.BaseTable(alias))
		rows := make([]int32, tbl.NumRows())
		for i := range rows {
			rows[i] = int32(i)
		}
		mask := make([]uint64, (len(rows)+63)/64)
		predicate.FillRows(q.FilterOn(alias), tbl, rows, mask)
		out[alias] = []int32{}
		for _, r := range rows {
			if mask[r>>6]>>(r&63)&1 == 1 {
				out[alias] = append(out[alias], r)
			}
		}
	}
	return out
}

// reduceAll reduces the row sets start three ways — the oracle, the
// reference driver (semanticReduce) and the kernel driver (reduceKernel,
// each table laid out in a shuffled order) — and returns each way's
// surviving base rows per alias, ascending, and its probes.
func reduceAll(t *testing.T, e *Engine, q *workload.Query, start map[string][]int32, rng *rand.Rand) (rows [3]map[string][]int32, probes [3]int) {
	t.Helper()
	b, err := e.resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]*aliasState{}
	ordered, ref := make([]*aliasState, len(b.aliases)), make([]*aliasState, len(b.aliases))
	for _, a := range b.aliases {
		ordered[a.idx] = &aliasState{rows: slices.Clone(start[a.name])}
		ref[a.idx] = &aliasState{rows: slices.Clone(start[a.name])}
		oracle[a.name] = ordered[a.idx]
	}
	collect := func(as []*aliasState) map[string][]int32 {
		out := map[string][]int32{}
		for _, a := range b.aliases {
			out[a.name] = slices.Clone(as[a.idx].rows)
			slices.Sort(out[a.name])
		}
		return out
	}
	probes[0], probes[1] = fixpointOracle(e, q, oracle), e.semanticReduce(b, ref)
	rows[0], rows[1] = collect(ordered), collect(ref)

	orders := map[string]*block.RowOrder{}
	vec := make([]*vecAlias, len(b.aliases))
	for _, a := range b.aliases {
		table := a.ts.table
		if orders[table] == nil {
			orders[table] = permutedOrder(e.ds.Table(table).NumRows(), rng)
		}
		ints := make([]int, len(start[a.name]))
		for i, r := range start[a.name] {
			ints[i] = int(r)
		}
		vec[a.idx] = testAlias(table, orders[table], ints)
	}
	probes[2] = e.reduceKernel(b, vec)
	rows[2] = map[string][]int32{}
	for _, ba := range b.aliases {
		a := vec[ba.idx]
		set := bitmap.NewDense(e.ds.Table(a.table).NumRows())
		baseRows(a.set, a.order, set)
		rows[2][ba.name] = []int32{}
		set.ForEach(func(r int) { rows[2][ba.name] = append(rows[2][ba.name], int32(r)) })
		if a.count != len(rows[2][ba.name]) {
			t.Errorf("%s: kernel alias %s counts %d rows, its set holds %d", q.ID, ba.name, a.count, len(rows[2][ba.name]))
		}
	}
	return rows, probes
}

// TestScheduleMatchesFixpointOnRandomGraphs is the differential test of
// the one reduction driver against fixpointOracle on seeded random join
// graphs: 1 to 5 aliases over small int tables with NULL keys, every join
// type, cycles, two edges on one pair and self edges. Both drivers keep
// exactly the oracle's rows; on a repeated schedule they also charge its
// probes, and on the sweeps they charge each other's. A query without a
// self edge (Validate refuses one) also runs through Execute and
// ExecuteReference, which must return equal Results whose SurvivingRows
// and join probes match the drivers'.
func TestScheduleMatchesFixpointOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	repeated, executed := 0, 0
	for c := 0; c < 400; c++ {
		ds := randomGraphDS(rng)
		d, err := layout.SortKeyDesign(ds, layout.SortKeys{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		store := colstore.NewMemStore(block.DefaultCostModel())
		if _, err := d.Install(store, nil, 0); err != nil {
			t.Fatal(err)
		}
		e := New(store, d, ds, DefaultOptions())
		q := randomGraphQuery(rng, fmt.Sprintf("g%d", c))
		start := filteredRows(ds, q)
		counts := map[string]int{}
		for alias, rs := range start {
			counts[alias] = len(rs)
		}
		_, repeat := sweepSchedule(q, counts)
		if repeat {
			repeated++
		}
		rows, probes := reduceAll(t, e, q, start, rng)
		for i, name := range []string{"reference", "kernel"} {
			if !reflect.DeepEqual(rows[i+1], rows[0]) {
				t.Errorf("%s (%v): %s keeps %v, the oracle %v", q.ID, q.Joins, name, rows[i+1], rows[0])
			}
		}
		if probes[2] != probes[1] || repeat && probes[1] != probes[0] {
			t.Errorf("%s (%v, repeat %v): probes reference %d, kernel %d, oracle %d",
				q.ID, q.Joins, repeat, probes[1], probes[2], probes[0])
		}
		if q.Validate() != nil {
			continue
		}
		executed++
		got, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		want, err := e.ExecuteReference(q)
		if err != nil {
			t.Fatalf("%s (reference): %v", q.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Execute diverges from ExecuteReference:\n got %+v\nwant %+v", q.ID, got, want)
		}
		for alias, rs := range rows[0] {
			if got.SurvivingRows[alias] != len(rs) {
				t.Errorf("%s: Execute keeps %d rows of %s, the oracle %d", q.ID, got.SurvivingRows[alias], alias, len(rs))
			}
		}
		if p := probesOf(t, store, got); p != probes[1] {
			t.Errorf("%s: Execute charged %d probes, the driver %d", q.ID, p, probes[1])
		}
	}
	if repeated < 100 || executed < 100 {
		t.Errorf("%d repeated schedules, %d executed queries: the generator drifted", repeated, executed)
	}
}

// TestScheduleSelfEdgeChargesEdgeStart pins an inner self edge a.k0 = a.k1:
// both of its steps are charged as of the edge's start, 2·|a| on pass 0,
// though the first step shrinks a before the second runs.
func TestScheduleSelfEdgeChargesEdgeStart(t *testing.T) {
	ds := relation.NewDataset()
	tbl := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "k0", Type: value.KindInt},
		relation.Column{Name: "k1", Type: value.KindInt},
	))
	for _, r := range [][2]int64{{1, 1}, {2, 1}, {3, 1}} {
		tbl.MustAppendRow(value.Int(r[0]), value.Int(r[1]))
	}
	ds.MustAddTable(tbl)
	e := New(nil, nil, ds, DefaultOptions())
	q := workload.NewQuery("self", workload.TableRef{Table: "t", Alias: "a"})
	q.AddTypedJoin(workload.Join{Left: "a", LeftColumn: "k0", Right: "a", RightColumn: "k1", Type: workload.InnerJoin})
	rows, probes := reduceAll(t, e, q, map[string][]int32{"a": {0, 1, 2}}, rand.New(rand.NewSource(1)))
	// Pass 0 keeps a's row (1, 1) at 2·3 probes; pass 1 changes nothing at
	// 2·1. Charging each step as it starts would give 3+1 on pass 0.
	for i, name := range []string{"oracle", "reference", "kernel"} {
		if probes[i] != 2*3+2*1 || !reflect.DeepEqual(rows[i]["a"], []int32{0}) {
			t.Errorf("%s: probes %d, rows %v; want 8, [0]", name, probes[i], rows[i]["a"])
		}
	}
}

// TestScheduleSelfEdgeReadsSourceAtStepStart pins an anti self edge
// a.k0 ▷ a.k1 over three of 6 400 rows with distinct keys, a shape whose
// cost picks source postings. The step must read its source as of its
// start: row 0 drops (row 1 holds its k0 in k1), and row 2 drops because
// row 0 holds its k0 in k1, wherever row 0 lies. A step that walked its
// own target while rewriting it would keep row 2 whenever row 0 sits in
// an earlier word.
func TestScheduleSelfEdgeReadsSourceAtStepStart(t *testing.T) {
	ds := relation.NewDataset()
	tbl := relation.NewTable(relation.MustSchema("t",
		relation.Column{Name: "k0", Type: value.KindInt},
		relation.Column{Name: "k1", Type: value.KindInt},
	))
	tbl.MustAppendRow(value.Int(1), value.Int(2)) // row 0
	tbl.MustAppendRow(value.Int(3), value.Int(1)) // row 1
	tbl.MustAppendRow(value.Int(2), value.Int(4)) // row 2
	for i := 3; i < 6400; i++ {
		tbl.MustAppendRow(value.Int(int64(i+100)), value.Int(int64(i+100)))
	}
	ds.MustAddTable(tbl)
	e := New(nil, nil, ds, DefaultOptions())
	q := workload.NewQuery("self-anti", workload.TableRef{Table: "t", Alias: "a"})
	q.AddTypedJoin(workload.Join{Left: "a", LeftColumn: "k0", Right: "a", RightColumn: "k1", Type: workload.LeftAntiSemiJoin})
	td, sd := e.dictFor("t", "k0"), e.dictFor("t", "k1")
	if how := chooseStrategy(3, 3, true, td, sd); how != sourcePostings {
		t.Fatalf("strategy %v, want source postings", how)
	}
	for seed := int64(1); seed <= 16; seed++ {
		rows, _ := reduceAll(t, e, q, map[string][]int32{"a": {0, 1, 2}}, rand.New(rand.NewSource(seed)))
		for i, name := range []string{"oracle", "reference", "kernel"} {
			if !reflect.DeepEqual(rows[i]["a"], []int32{1}) {
				t.Errorf("seed %d: %s keeps %v, want [1]", seed, name, rows[i]["a"])
			}
		}
	}
}
