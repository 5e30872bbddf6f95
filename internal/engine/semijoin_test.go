package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/datagen"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// keyTable builds a one-column table "k" of keys; value.Null is a null
// key. The column is a float column when any key is a float, an int
// column otherwise.
func keyTable(name string, keys []value.Value) *relation.Table {
	kind := value.KindInt
	for _, k := range keys {
		if k.Kind() == value.KindFloat {
			kind = value.KindFloat
		}
	}
	tbl := relation.NewTable(relation.MustSchema(name, relation.Column{Name: "k", Type: kind}))
	for _, k := range keys {
		tbl.MustAppendRow(k)
	}
	return tbl
}

func keys(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.Int(v)
	}
	return out
}

func floatKeys(vs ...float64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.Float(v)
	}
	return out
}

// semiCase is one semijoin input: two tables and the rows of each that
// survive before the step.
type semiCase struct {
	name       string
	tgt, src   []value.Value
	tgtR, srcR []int // surviving rows
}

// runStrategies reduces a fresh copy of the case's target by its source
// under each of the three strategies and returns the kept rows and removed
// flag of each, plus the scalar reduceTo's answer.
func runStrategies(t *testing.T, c semiCase, anti bool) (map[strategy]bitmap.Dense, map[strategy]bool, bitmap.Dense) {
	t.Helper()
	ds := relation.NewDataset()
	tt, st := keyTable("T", c.tgt), keyTable("S", c.src)
	ds.MustAddTable(tt)
	ds.MustAddTable(st)
	e := New(nil, nil, ds, DefaultOptions())
	td, sd := e.dictFor("T", "k"), e.dictFor("S", "k")
	if td == nil || sd == nil {
		t.Fatalf("%s: no dictionary", c.name)
	}
	// Each side is laid out in blocks of a permuted row order, so
	// positions differ from rows, and blocks end mid-word.
	rng := rand.New(rand.NewSource(int64(len(c.tgt)*1000 + len(c.src))))
	tOrder, sOrder := permutedOrder(len(c.tgt), rng), permutedOrder(len(c.src), rng)
	sets := map[strategy]bitmap.Dense{}
	removed := map[strategy]bool{}
	for _, how := range []strategy{probeTarget, targetPostings, sourcePostings} {
		s := semijoin{tgt: testAlias("T", tOrder, c.tgtR), src: testAlias("S", sOrder, c.srcR),
			tgtCol: "k", srcCol: "k", anti: anti}
		removed[how] = e.run(s, semiPlan{how, td, sd})
		sets[how] = bitmap.NewDense(len(c.tgt))
		baseRows(s.tgt.set, tOrder, sets[how])
		if got := s.tgt.set.Count(); got != s.tgt.count {
			t.Errorf("%s/%d: count %d, set holds %d", c.name, how, s.tgt.count, got)
		}
	}
	// Two interval dictionaries translate by a shift, never an array.
	if _, shifted := relation.IntervalShift(sd, td); shifted != (len(e.xlate) == 0) {
		t.Errorf("%s: shift %v, %d translation arrays cached", c.name, shifted, len(e.xlate))
	}
	// The scalar path's answer.
	as := &aliasState{}
	for _, r := range c.tgtR {
		as.rows = append(as.rows, int32(r))
	}
	var srcRows []int32
	for _, r := range c.srcR {
		srcRows = append(srcRows, int32(r))
	}
	reduceTo(as, tt, tt.Schema().MustColumnIndex("k"), keysOf(st, srcRows, st.Schema().MustColumnIndex("k")), anti)
	want := bitmap.NewDense(len(c.tgt))
	for _, r := range as.rows {
		want.Set(int(r))
	}
	return sets, removed, want
}

// testAlias is an alias of table name laid out by order whose survivors
// are rows.
func testAlias(name string, order *block.RowOrder, rows []int) *vecAlias {
	a := &vecAlias{table: name, order: order, set: bitmap.NewDense(order.Words() << 6),
		keys: map[string]*cachedKeys{}}
	pos := positionsOf(order)
	for _, r := range rows {
		a.set.Set(pos[r])
	}
	a.count = a.set.Count()
	return a
}

// permutedOrder lays out n rows, shuffled, in blocks of 1 to 100 rows.
func permutedOrder(n int, rng *rand.Rand) *block.RowOrder {
	perm := rng.Perm(n)
	var blocks [][]int32
	for off := 0; off < n; {
		end := min(off+1+rng.Intn(100), n)
		var rows []int32
		for _, r := range perm[off:end] {
			rows = append(rows, int32(r))
		}
		blocks = append(blocks, rows)
		off = end
	}
	return block.NewRowOrder(blocks)
}

// positionsOf inverts order: each row's position.
func positionsOf(order *block.RowOrder) map[int]int {
	pos := map[int]int{}
	for p, r := range order.Rows {
		if r >= 0 {
			pos[int(r)] = p
		}
	}
	return pos
}

func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestStrategyEquivalence runs the probe, target-postings and
// source-postings strategies directly on the same inputs and requires
// identical survivor bitmaps and "removed" flags, equal to the scalar
// reduceTo's, over int keys, float keys (NULL, NaN, ±0, ±Inf, duplicates),
// int keys against float keys, and interval dictionaries (dense int keys)
// whose translation is a nonzero shift, with source keys beyond the
// target's range at either end or both.
func TestStrategyEquivalence(t *testing.T) {
	null, nan, inf := value.Null, value.Float(math.NaN()), math.Inf(1)
	cases := []semiCase{
		{name: "matching", tgt: keys(1, 2, 3, 4, 2), src: keys(2, 4, 9),
			tgtR: allRows(5), srcR: allRows(3)},
		{name: "nulls", tgt: []value.Value{null, value.Int(1), null, value.Int(3)},
			src:  []value.Value{null, value.Int(1), value.Int(3)},
			tgtR: allRows(4), srcR: []int{0, 1}},
		{name: "absent-codes", tgt: keys(5, 6, 7), src: keys(1, 2, 6),
			tgtR: allRows(3), srcR: allRows(3)},
		{name: "empty-source", tgt: keys(1, 2, 3), src: keys(1, 2, 3),
			tgtR: allRows(3), srcR: nil},
		{name: "empty-target", tgt: keys(1, 2, 3), src: keys(1, 2, 3),
			tgtR: nil, srcR: allRows(3)},
		{name: "one-row", tgt: keys(7), src: keys(7),
			tgtR: allRows(1), srcR: allRows(1)},
		{name: "one-row-miss", tgt: keys(7), src: keys(8),
			tgtR: allRows(1), srcR: allRows(1)},
		{name: "source-survivor-late-in-list", tgt: keys(1, 2), src: keys(1, 1, 1, 2, 2, 1),
			tgtR: allRows(2), srcR: []int{5}},
		{name: "float-matching", tgt: floatKeys(0.5, 1.5, 2.5, 1.5), src: floatKeys(1.5, 3.5),
			tgtR: allRows(4), srcR: allRows(2)},
		{name: "float-specials", tgt: append(floatKeys(math.Copysign(0, -1), 0, inf, -inf, 2), nan, null),
			src:  append(floatKeys(0, inf, 7), nan, null),
			tgtR: allRows(7), srcR: allRows(5)},
		{name: "float-signed-zero-source", tgt: floatKeys(0, 1), src: floatKeys(math.Copysign(0, -1)),
			tgtR: allRows(2), srcR: allRows(1)},
		{name: "float-nan-only-source", tgt: append(floatKeys(1), nan), src: []value.Value{nan, nan},
			tgtR: allRows(2), srcR: allRows(2)},
		{name: "int-target-float-source", tgt: keys(1, 2, 3), src: floatKeys(1, 2, 3),
			tgtR: allRows(3), srcR: allRows(3)},
		{name: "float-target-int-source", tgt: floatKeys(1, 2.5, 3), src: keys(1, 3),
			tgtR: allRows(3), srcR: allRows(2)},
		{name: "interval-shift-up", tgt: keys(10, 11, 12, 13, 14), src: keys(13, 14, 15, 16),
			tgtR: allRows(5), srcR: allRows(4)},
		{name: "interval-shift-down", tgt: append(keys(10, 12, 11, 13), null), src: append(keys(7, 8, 9, 10, 11), null),
			tgtR: allRows(5), srcR: allRows(6)},
		{name: "interval-source-straddles", tgt: keys(10, 11, 12, 13), src: keys(8, 9, 10, 11, 12, 13, 14, 15),
			tgtR: allRows(4), srcR: []int{0, 1, 3, 6, 7}},
		{name: "interval-source-below", tgt: keys(10, 11, 12), src: keys(-3, -2, -1),
			tgtR: allRows(3), srcR: allRows(3)},
		{name: "interval-source-above", tgt: keys(10, 11, 12), src: keys(math.MaxInt64-1, math.MaxInt64),
			tgtR: allRows(3), srcR: allRows(2)},
		{name: "interval-far-apart", tgt: keys(math.MinInt64, math.MinInt64+1), src: keys(math.MaxInt64, math.MaxInt64-1),
			tgtR: allRows(2), srcR: allRows(2)},
	}
	rng := rand.New(rand.NewSource(7))
	specials := []value.Value{null, nan, value.Float(math.Copysign(0, -1)), value.Float(0),
		value.Float(inf), value.Float(-inf)}
	for i := 0; i < 180; i++ {
		kind := i % 3 // int, float, or float with specials
		gen := func(n, domain int) []value.Value {
			out := make([]value.Value, n)
			for r := range out {
				v := rng.Intn(domain)
				switch {
				case rng.Intn(8) == 0:
					out[r] = null
				case kind == 0:
					out[r] = value.Int(int64(v))
				case kind == 2 && rng.Intn(4) == 0:
					out[r] = specials[rng.Intn(len(specials))]
				default:
					out[r] = value.Float(float64(v) / 2)
				}
			}
			if kind == 2 {
				out[0] = nan // the column is a float column even when every draw is NULL
			}
			return out
		}
		pick := func(n int) []int {
			var rows []int
			p := rng.Float64()
			for r := 0; r < n; r++ {
				if rng.Float64() < p {
					rows = append(rows, r)
				}
			}
			return rows
		}
		nt, ns := 1+rng.Intn(300), 1+rng.Intn(300)
		c := semiCase{name: fmt.Sprintf("random-%d", i),
			tgt: gen(nt, 1+rng.Intn(120)), src: gen(ns, 1+rng.Intn(120))}
		c.tgtR, c.srcR = pick(nt), pick(ns)
		cases = append(cases, c)
	}
	// Interval pairs: each side's keys fill a random range (nulls aside),
	// the two ranges overlapping, nested or disjoint.
	irng := rand.New(rand.NewSource(11))
	interval := func(n int) []value.Value {
		lo, span := int64(irng.Intn(200)-100), 1+irng.Intn(n)
		out := make([]value.Value, n)
		for r, p := range irng.Perm(n) {
			out[r] = value.Int(lo + int64(p%span))
			if p >= span && irng.Intn(6) == 0 {
				out[r] = null
			}
		}
		return out
	}
	for i := 0; i < 60; i++ {
		nt, ns := 1+irng.Intn(200), 1+irng.Intn(200)
		c := semiCase{name: fmt.Sprintf("random-interval-%d", i), tgt: interval(nt), src: interval(ns)}
		for _, side := range []struct {
			n    int
			rows *[]int
		}{{nt, &c.tgtR}, {ns, &c.srcR}} {
			p := irng.Float64()
			for r := 0; r < side.n; r++ {
				if irng.Float64() < p {
					*side.rows = append(*side.rows, r)
				}
			}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		if strings.HasPrefix(c.name, "interval") || strings.HasPrefix(c.name, "random-interval") {
			td, _ := relation.BuildColumnDict(keyTable("T", c.tgt), "k")
			sd, _ := relation.BuildColumnDict(keyTable("S", c.src), "k")
			if _, ok := relation.IntervalShift(sd, td); !ok {
				t.Fatalf("%s: not an interval pair", c.name)
			}
		}
		for _, anti := range []bool{false, true} {
			sets, removed, want := runStrategies(t, c, anti)
			for how, set := range sets {
				if !reflect.DeepEqual(set, want) {
					t.Errorf("%s anti=%v: strategy %d kept %v, want %v", c.name, anti, how, set, want)
				}
				if removed[how] != removed[probeTarget] {
					t.Errorf("%s anti=%v: strategy %d removed=%v, probe removed=%v",
						c.name, anti, how, removed[how], removed[probeTarget])
				}
			}
		}
	}
}

// TestIntervalPairCachesNoTranslation: between two interval dictionaries
// xlateFor returns a shift and caches no array, in either direction; an
// interval column against a sorted one gets a cached array. Either way a
// code maps to the target slot of its value, and a null code, or a value
// outside the target's range at either end, to slot 0.
func TestIntervalPairCachesNoTranslation(t *testing.T) {
	ds := relation.NewDataset()
	ds.MustAddTable(keyTable("T", keys(10, 11, 12, 13)))                                // interval [10, 13]
	ds.MustAddTable(keyTable("S", append(keys(9, 10, 11, 12, 13, 14, 12), value.Null))) // interval [9, 14]
	ds.MustAddTable(keyTable("U", keys(9, 20, 13)))                                     // sorted
	e := New(nil, nil, ds, DefaultOptions())
	for _, c := range []struct {
		from, to string
		array    bool
		slots    []int32 // per code of from, then for code -1 (null)
	}{
		{"S", "T", false, []int32{0, 1, 2, 3, 4, 0, 0}},
		{"T", "S", false, []int32{2, 3, 4, 5, 0}},
		{"U", "T", true, []int32{0, 4, 0, 0}},
	} {
		from, to := colKey{c.from, "k"}, colKey{c.to, "k"}
		xl := e.xlateFor(from, e.dictFor(c.from, "k"), to, e.dictFor(c.to, "k"))
		if _, cached := e.xlate[xlateKey{from, to}]; cached != c.array || (xl.arr != nil) != c.array {
			t.Errorf("%s → %s: array cached %v, returned %v; want %v", c.from, c.to, cached, xl.arr != nil, c.array)
		}
		for i, want := range c.slots {
			code := int32(i)
			if i == len(c.slots)-1 {
				code = -1
			}
			if got := xl.slot(code); got != want {
				t.Errorf("%s → %s: code %d in slot %d, want %d", c.from, c.to, code, got, want)
			}
		}
	}
	if len(e.xlate) != 1 {
		t.Errorf("%d translation arrays cached, want 1 (U → T)", len(e.xlate))
	}
}

// TestPostingsInvertDictionary pins the code → rows index: every non-null
// row sits in its code's list, lists are ascending, nulls are in none.
func TestPostingsInvertDictionary(t *testing.T) {
	tbl := keyTable("T", []value.Value{value.Int(3), value.Null, value.Int(1), value.Int(3), value.Int(2), value.Null, value.Int(1)})
	d, err := relation.BuildColumnDict(tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int32, d.NumRows())
	for r := range codes {
		codes[r] = d.Code(r)
	}
	p := buildPostings(codes, d.NumCodes(), nil)
	want := [][]int32{{2, 6}, {4}, {0, 3}} // codes of 1, 2, 3
	for c, rows := range want {
		if got := p.of(int32(c)); !reflect.DeepEqual(got, rows) {
			t.Errorf("code %d: rows %v, want %v", c, got, rows)
		}
	}
	if len(p.pos) != 5 {
		t.Errorf("postings hold %d rows, want the 5 non-null ones", len(p.pos))
	}
}

// scheduleQuery builds a query over the given aliases (each its own
// table) and edges.
func scheduleQuery(aliases []string, joins ...workload.Join) *workload.Query {
	refs := make([]workload.TableRef, len(aliases))
	for i, a := range aliases {
		refs[i] = workload.TableRef{Table: a}
	}
	q := workload.NewQuery("sched", refs...)
	for _, j := range joins {
		q.AddTypedJoin(j)
	}
	return q
}

func edge(l, r string, typ workload.JoinType) workload.Join {
	return workload.Join{Left: l, LeftColumn: "k", Right: r, RightColumn: "k", Type: typ}
}

// TestSweepScheduleClassification pins which join graphs get the two
// sweeps: forests of inner/semi edges do, and so do anti and outer edges
// whose non-preserved side is a leaf — an anti edge as a step in the
// bottom-up sweep right after its preserved side's children reduce it, an
// outer edge as a step after the sweeps. Cycles, two edges on one alias
// pair, an alias joined to itself, full outer edges and one-sided edges
// whose non-preserved side has another edge keep the fixpoint.
func TestSweepScheduleClassification(t *testing.T) {
	counts := map[string]int{"f": 1000, "a": 10, "b": 50, "c": 5, "d": 70, "x": 3, "y": 4}
	tpch := func(n int) *workload.Query { return datagen.TPCHQuery(n, rand.New(rand.NewSource(1))) }
	// order lists the steps as "target<source" when pinned.
	sweeps := []struct {
		name  string
		q     *workload.Query
		steps int
		order []string
	}{
		{"no joins", scheduleQuery([]string{"f"}), 0, nil},
		{"star", scheduleQuery([]string{"f", "a", "b", "c"},
			edge("a", "f", workload.InnerJoin), edge("f", "b", workload.InnerJoin),
			edge("c", "f", workload.SemiJoin)), 6, nil},
		{"chain", scheduleQuery([]string{"a", "f", "b", "d"},
			edge("a", "f", workload.InnerJoin), edge("b", "f", workload.InnerJoin),
			edge("d", "b", workload.InnerJoin)), 6, nil},
		{"forest", scheduleQuery([]string{"f", "a", "x", "y"},
			edge("a", "f", workload.InnerJoin), edge("x", "y", workload.SemiJoin)), 4, nil},
		{"left anti leaf", scheduleQuery([]string{"f", "a", "b"},
			edge("a", "f", workload.InnerJoin), edge("f", "b", workload.LeftAntiSemiJoin)),
			3, []string{"f<a", "f<b", "a<f"}},
		{"right anti leaf", scheduleQuery([]string{"f", "a", "b"},
			edge("a", "f", workload.InnerJoin), edge("b", "f", workload.RightAntiSemiJoin)),
			3, []string{"f<a", "f<b", "a<f"}},
		{"anti leaf on a child", scheduleQuery([]string{"f", "a", "x"},
			edge("a", "f", workload.InnerJoin), edge("a", "x", workload.LeftAntiSemiJoin)),
			3, []string{"a<x", "f<a", "a<f"}},
		{"left outer leaf", scheduleQuery([]string{"f", "a", "b"},
			edge("a", "f", workload.InnerJoin), edge("f", "b", workload.LeftOuterJoin)),
			3, []string{"f<a", "a<f", "b<f"}},
		{"right outer leaf", scheduleQuery([]string{"f", "a", "b"},
			edge("a", "f", workload.InnerJoin), edge("b", "f", workload.RightOuterJoin)),
			3, []string{"f<a", "a<f", "b<f"}},
		{"anti and outer leaves", scheduleQuery([]string{"f", "a", "b", "c"},
			edge("f", "b", workload.LeftOuterJoin), edge("a", "f", workload.InnerJoin),
			edge("f", "c", workload.LeftAntiSemiJoin)), 4, []string{"f<a", "f<c", "a<f", "b<f"}},
		{"tpch q13", tpch(13), 1, []string{"orders<customer"}},
		{"tpch q16", tpch(16), 3, nil},
		{"tpch q21", tpch(21), 9, nil},
		{"tpch q22", tpch(22), 1, []string{"customer<orders"}},
	}
	for _, c := range sweeps {
		steps, repeat := sweepSchedule(c.q, counts)
		if repeat || len(steps) != c.steps {
			t.Errorf("%s: repeat=%v steps=%d, want the sweep with %d steps", c.name, repeat, len(steps), c.steps)
			continue
		}
		var got []string
		for _, st := range steps {
			tgt, src := ends(st, c.q.Joins[st.join].Left, c.q.Joins[st.join].Right)
			got = append(got, tgt+"<"+src)
			if typ := c.q.Joins[st.join].Type; st.anti != (typ == workload.LeftAntiSemiJoin || typ == workload.RightAntiSemiJoin) {
				t.Errorf("%s: step %s on a %s edge has anti=%v", c.name, got[len(got)-1], typ, st.anti)
			}
		}
		if c.order != nil && !reflect.DeepEqual(got, c.order) {
			t.Errorf("%s: steps %v, want %v", c.name, got, c.order)
		}
	}

	fixpoints := []struct {
		name string
		q    *workload.Query
	}{
		{"cycle", scheduleQuery([]string{"a", "b", "c"},
			edge("a", "b", workload.InnerJoin), edge("b", "c", workload.InnerJoin),
			edge("c", "a", workload.InnerJoin))},
		{"two edges on one pair", scheduleQuery([]string{"a", "b"},
			edge("a", "b", workload.InnerJoin), edge("b", "a", workload.InnerJoin))},
		{"self edge", scheduleQuery([]string{"a", "b"},
			edge("a", "a", workload.InnerJoin), edge("a", "b", workload.InnerJoin))},
		{"anti self edge", scheduleQuery([]string{"a"}, edge("a", "a", workload.LeftAntiSemiJoin))},
		{"unknown alias", scheduleQuery([]string{"a"}, edge("a", "zz", workload.InnerJoin))},
		{"full outer", scheduleQuery([]string{"f", "a", "b"},
			edge("a", "f", workload.InnerJoin), edge("f", "b", workload.FullOuterJoin))},
		{"tpch q5", tpch(5)},
	}
	// The non-preserved side f of each one-sided edge also joins a.
	for _, typ := range []workload.JoinType{workload.LeftOuterJoin, workload.RightOuterJoin,
		workload.LeftAntiSemiJoin, workload.RightAntiSemiJoin} {
		l, r := "b", "f"
		if typ == workload.RightOuterJoin || typ == workload.RightAntiSemiJoin {
			l, r = r, l
		}
		fixpoints = append(fixpoints, struct {
			name string
			q    *workload.Query
		}{typ.String() + " on a non-leaf", scheduleQuery([]string{"f", "a", "b"},
			edge("a", "f", workload.InnerJoin), edge(l, r, typ))})
	}
	for _, c := range fixpoints {
		if steps, repeat := sweepSchedule(c.q, counts); !repeat {
			t.Errorf("%s: got the sweep (%d steps), want the fixpoint", c.name, len(steps))
		}
	}
}

// TestSweepScheduleOrder pins the step order on a rooted tree: the root
// is the largest alias; bottom-up, each parent is reduced by its children
// least-surviving first, after their own subtrees; top-down, each child
// by its parent.
func TestSweepScheduleOrder(t *testing.T) {
	// f(1000) — a(10), f — b(50), b — d(70); c(5) hangs off a.
	q := scheduleQuery([]string{"a", "b", "c", "d", "f"},
		edge("a", "f", workload.InnerJoin), edge("f", "b", workload.InnerJoin),
		edge("b", "d", workload.InnerJoin), edge("c", "a", workload.InnerJoin))
	counts := map[string]int{"f": 1000, "a": 10, "b": 50, "c": 5, "d": 70}
	steps, repeat := sweepSchedule(q, counts)
	if repeat {
		t.Fatal("tree classified as needing the fixpoint")
	}
	var got []string
	for _, st := range steps {
		tgt, src := ends(st, q.Joins[st.join].Left, q.Joins[st.join].Right)
		got = append(got, tgt+"<"+src)
	}
	want := []string{
		"a<c", "b<d", "f<a", "f<b", // bottom-up: subtrees first, then f by a (10) before b (50)
		"a<f", "c<a", "b<f", "d<b", // top-down
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("steps %v, want %v", got, want)
	}
}
