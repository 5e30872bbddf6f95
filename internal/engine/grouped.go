package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file holds the row-order fold: the one pass over an alias's
// survivors, over the base table's decoded vectors, that computes all its
// aggregates when the backend's fold declines any (floats, overflow-risk
// sums, float group columns, group dictionaries wider than
// block.MaxGroupSlots), and every fold on the reference path. Each
// survivor has a slot — 0 when ungrouped, a dictionary column's code+1
// (NULL is 0), a float group column's first-seen slot, every NaN sharing
// one. The pass is slot-major: it gets each slot's survivors as ascending
// base rows, and every aggregate folds a slot's run with one typed kernel
// that keeps the slot's state in locals, so within a slot the fold order
// is ascending base-row order, which defines float sums, and no row waits
// on the store of the row before it. A grouped pass goes one window of
// base rows at a time, every slot's run in the window before the next
// window (foldWindows), so the window's column values stay in cache
// across the slots.
//
// The rows come from one of two sources (foldPositions). A grouped fold
// on a dictionary column with a dense survivor set filters the layout's
// cached slot lists — each (window, slot) segment's (position, base row)
// pairs — through the position set. Every other fold maps the survivors
// to a base-row bitmap and decodes it (foldMaterialized): one chunk at a
// time when ungrouped, else whole, slotted and grouped by segment with
// buildPostings.
//
// Group output order is deterministic everywhere: the NULL group first,
// then groups ascending by value, a float NaN group last (the PostgreSQL
// convention). Dictionary codes are ranks, so for them that is ascending
// slot order, and the backend and row-order folds enumerate groups
// identically.

// GroupValue is one group's slice of a grouped aggregate: the group key
// (Null for rows whose grouping value is null) and the aggregate folded
// over that group's survivors.
type GroupValue struct {
	Key   value.Value
	Value value.Value
}

// foldChunkWords is how many survivor-bitmap words an ungrouped fold
// decodes into one run.
const foldChunkWords = 16

// foldRunRows bounds the run a slot's pairs filter into at once.
const foldRunRows = 1024

// denseFoldDivisor sets the dense cut: a grouped fold on a dictionary
// column reads the layout's slot lists when its survivors are at least
// 1/denseFoldDivisor of the table's rows. Walking the lists costs every
// row of the table, decoding costs every survivor more. In
// BenchmarkRowOrderFold (lineitem at SF 0.05, 2 vCPUs, medians of five
// runs) lists take 1.77 ms and decode 2.86 ms at 25 % survivors, and 1.49
// against 1.53 ms at 12 %: lists cost about 1.2 ms + 7.6 ns per survivor,
// decode 0.2 ms + 36 ns, so they cross near 12 %.
const denseFoldDivisor = 8

// slotter assigns survivors their accumulator slots and counts the
// survivors of each slot (COUNT(*) and group presence).
type slotter struct {
	rows  []int64
	dict  *relation.ColumnDict // slot = code+1
	flt   []float64            // float group column, slot by first sight
	nulls []bool
	keys  []float64 // float key per slot; keys[0] is the NULL slot's
	slot  map[float64]int32
	nan   int32 // the NaN group's slot, 0 until one is seen
}

// newSlotter returns the slotter for f's grouping.
func (e *Engine) newSlotter(f *foldSpec) *slotter {
	if f.group.IsZero() {
		return &slotter{rows: make([]int64, 1)}
	}
	if dict := e.groupDictFor(f.table, f.group.Column); dict != nil {
		return &slotter{rows: make([]int64, dict.NumCodes()+1), dict: dict}
	}
	// A float group column gets no group dictionary (groupDictFor).
	return &slotter{rows: make([]int64, 1), flt: f.tbl.Floats(f.groupOrd), nulls: f.tbl.Nulls(f.groupOrd),
		keys: make([]float64, 1), slot: map[float64]int32{}}
}

// assign writes each row's slot into slots, opening float slots in the
// order rows lists them.
func (g *slotter) assign(rows, slots []int32) {
	if g.dict != nil {
		for j, r := range rows {
			slots[j] = g.dict.Code(int(r)) + 1 // -1 (null) → slot 0
		}
		return
	}
	for j, r := range rows {
		s := int32(0)
		if g.nulls == nil || !g.nulls[r] {
			s = g.floatSlot(g.flt[r])
		}
		slots[j] = s
	}
}

// floatSlot returns v's slot, opening one on first sight. ±0 compare equal
// and share the slot of the first seen; every NaN shares one slot.
func (g *slotter) floatSlot(v float64) int32 {
	if v != v {
		if g.nan == 0 {
			g.nan = g.open(v)
		}
		return g.nan
	}
	s, ok := g.slot[v]
	if !ok {
		s = g.open(v)
		g.slot[v] = s
	}
	return s
}

func (g *slotter) open(v float64) int32 {
	g.keys, g.rows = append(g.keys, v), append(g.rows, 0)
	return int32(len(g.keys) - 1)
}

// live returns the slots that hold survivors in output order: NULL first,
// then ascending values, NaN last.
func (g *slotter) live() []int {
	var live []int
	for s, n := range g.rows {
		if n > 0 {
			live = append(live, s)
		}
	}
	if g.flt != nil {
		rest := live
		if len(rest) > 0 && rest[0] == 0 {
			rest = rest[1:]
		}
		sort.Slice(rest, func(a, b int) bool {
			x, y := g.keys[rest[a]], g.keys[rest[b]]
			return x < y || (x == x && y != y)
		})
	}
	return live
}

// key returns slot's group key.
func (g *slotter) key(slot int) value.Value {
	switch {
	case slot == 0:
		return value.Null
	case g.dict != nil:
		return g.dict.Value(int32(slot - 1))
	default:
		return value.Float(g.keys[slot])
	}
}

// slotAcc is one aggregate's per-slot state in the row-order pass: cnt
// counts non-null rows (a column without nulls has the slot's rows); the
// array of the column's kind holds the SUM, MIN or MAX.
type slotAcc struct {
	spec     workload.Aggregate
	kind     value.Kind
	nulls    []bool
	ints     []int64
	floats   []float64
	strs     []string
	cnt, i   []int64
	f        []float64
	s        []string
	overflow bool
}

// grow extends the state to n slots.
func (a *slotAcc) grow(n int) {
	a.cnt = extend(a.cnt, n)
	switch a.kind {
	case value.KindInt:
		a.i = extend(a.i, n)
	case value.KindFloat:
		a.f = extend(a.f, n)
	case value.KindString:
		a.s = extend(a.s, n)
	}
}

func extend[T any](s []T, n int) []T { return append(s, make([]T, max(0, n-len(s)))...) }

// foldRun folds rows, ascending base rows of slot s, with the aggregate's
// typed run kernel: the slot's state is read once and written back once.
// COUNT(*) reads the slotter's rows and an overflowed sum stops folding.
func (a *slotAcc) foldRun(s int, rows []int32) {
	switch {
	case a.spec.Column == "" || a.overflow || (a.nulls == nil && a.spec.Op == workload.AggCount):
	case a.spec.Op == workload.AggCount:
		a.cnt[s] += countValid(rows, a.nulls)
	case a.spec.Op == workload.AggMin || a.spec.Op == workload.AggMax:
		max := a.spec.Op == workload.AggMax
		switch a.kind {
		case value.KindInt:
			a.i[s], a.cnt[s] = runExtreme(rows, a.ints, a.nulls, a.i[s], a.cnt[s], max)
		case value.KindFloat:
			a.f[s], a.cnt[s] = runExtreme(rows, a.floats, a.nulls, a.f[s], a.cnt[s], max)
		default:
			a.s[s], a.cnt[s] = runExtreme(rows, a.strs, a.nulls, a.s[s], a.cnt[s], max)
		}
	case a.kind == value.KindInt:
		a.i[s], a.cnt[s], a.overflow = runIntSum(rows, a.ints, a.nulls, a.i[s], a.cnt[s])
	default:
		a.f[s], a.cnt[s] = runFloatSum(rows, a.floats, a.nulls, a.f[s], a.cnt[s])
	}
}

// countValid counts the rows whose value is not null.
func countValid(rows []int32, nulls []bool) int64 {
	var n int64
	for _, r := range rows {
		if !nulls[r] {
			n++
		}
	}
	return n
}

// runIntSum adds rows' values to sum, checked, counting rows only around
// nulls; overflow reports that the sum overflowed.
func runIntSum(rows []int32, vals []int64, nulls []bool, sum, cnt int64) (_, _ int64, overflow bool) {
	for _, r := range rows {
		if nulls != nil {
			if nulls[r] {
				continue
			}
			cnt++
		}
		v := vals[r]
		t := sum + v
		if (sum^t)&(v^t) < 0 { // both addends' signs differ from the result's
			return sum, cnt, true
		}
		sum = t
	}
	return sum, cnt, false
}

// runFloatSum adds rows' values to sum in the order rows lists them,
// counting rows only around nulls.
func runFloatSum(rows []int32, vals []float64, nulls []bool, sum float64, cnt int64) (float64, int64) {
	for _, r := range rows {
		if nulls != nil {
			if nulls[r] {
				continue
			}
			cnt++
		}
		sum += vals[r]
	}
	return sum, cnt
}

// runExtreme folds MIN (max false) or MAX into m: a slot's first non-null
// row (cnt 0) sets it and a later one replaces it only when strictly
// better, so a float NaN is kept only as a slot's first value.
func runExtreme[T cmp.Ordered](rows []int32, vals []T, nulls []bool, m T, cnt int64, max bool) (T, int64) {
	for _, r := range rows {
		if nulls != nil && nulls[r] {
			continue
		}
		v := vals[r]
		if cnt == 0 || (max && v > m) || (!max && v < m) {
			m = v
		}
		cnt++
	}
	return m, cnt
}

// value finalizes slot's aggregate; rows is the slot's survivor count.
func (a *slotAcc) value(slot int, rows int64) value.Value {
	if a.spec.Column == "" {
		return value.Int(rows)
	}
	n := a.cnt[slot]
	if a.nulls == nil { // sums and counts count only around nulls
		n = rows
	}
	if a.kind != value.KindFloat || a.spec.Op == workload.AggCount {
		st := block.AggState{Count: n, Seen: n > 0}
		if a.kind == value.KindString {
			st.MinS, st.MaxS = a.s[slot], a.s[slot]
		} else if a.kind == value.KindInt {
			st.Sum, st.MinI, st.MaxI = a.i[slot], a.i[slot], a.i[slot]
		}
		return finalizeAgg(a.spec, a.kind, &st)
	}
	switch {
	case n == 0:
		return value.Null
	case a.spec.Op == workload.AggAvg:
		return value.Float(a.f[slot] / float64(n))
	default:
		return value.Float(a.f[slot])
	}
}

// rowFold is one row-order pass: the slotter and one accumulator per
// aggregate, fed one slot's run of ascending base rows at a time.
type rowFold struct {
	gb    workload.GroupBy
	specs []workload.Aggregate
	g     *slotter
	accs  []slotAcc
}

// newRowFold returns the pass for f's aggregates.
func (e *Engine) newRowFold(fs *foldSpec) *rowFold {
	tbl := fs.tbl
	f := &rowFold{gb: fs.group, specs: fs.specs, g: e.newSlotter(fs), accs: make([]slotAcc, len(fs.specs))}
	for k, spec := range fs.specs {
		a := &f.accs[k]
		a.spec, a.kind = spec, fs.cols[k].kind
		if ci := fs.cols[k].ord; ci >= 0 {
			a.nulls = tbl.Nulls(ci)
			switch a.kind {
			case value.KindInt:
				a.ints = tbl.Ints(ci)
			case value.KindFloat:
				a.floats = tbl.Floats(ci)
			default:
				a.strs = tbl.Strings(ci)
			}
		}
	}
	f.grow()
	return f
}

// grow sizes every accumulator to the slotter's slots.
func (f *rowFold) grow() {
	for k := range f.accs {
		f.accs[k].grow(len(f.g.rows))
	}
}

// run folds rows, ascending base rows of slot s that follow every row
// already folded into s, into each aggregate.
func (f *rowFold) run(s int32, rows []int32) {
	f.g.rows[s] += int64(len(rows))
	for k := range f.accs {
		f.accs[k].foldRun(int(s), rows)
	}
}

// result finalizes the pass. When several integer sums overflowed, the
// error names the first in declaration order.
func (f *rowFold) result() ([]AggValue, error) {
	for k := range f.accs {
		if f.accs[k].overflow {
			return nil, fmt.Errorf("engine: aggregate %s: int64 sum overflow", f.specs[k])
		}
	}
	return slotAggs(f.gb, f.specs, f.g.live(), f.g.key, func(k, slot int) value.Value {
		return f.accs[k].value(slot, f.g.rows[slot])
	}), nil
}

// foldMaterialized computes fs's aggregates over the survivors of set, a
// bitmap over the table's base rows, in the row-order pass. An ungrouped
// fold is slot 0's run, decoded a chunk at a time; a grouped one decodes
// every survivor, slots each and groups them by (window, slot) segment
// with buildPostings, which keeps each segment's rows ascending.
func (e *Engine) foldMaterialized(fs *foldSpec, set bitmap.Dense) ([]AggValue, error) {
	f := e.newRowFold(fs)
	if fs.group.IsZero() {
		var sel [foldChunkWords * 64]int32
		for w0 := 0; w0 < len(set); w0 += foldChunkWords {
			if n := decodeRows(set[w0:min(w0+foldChunkWords, len(set))], w0, sel[:]); n > 0 {
				f.run(0, sel[:n])
			}
		}
		return f.result()
	}
	buf := foldBufs.Get().(*foldBuf)
	defer foldBufs.Put(buf)
	sel := resize(buf.sel, set.Count())
	decodeRows(set, 0, sel)
	slots := resize(buf.slots, len(sel))
	f.g.assign(sel, slots)
	f.grow()
	g := len(f.g.rows)
	shift, segs := foldWindows(fs.tbl.NumRows(), g)
	for j, r := range sel {
		slots[j] += (r >> shift) * int32(g)
	}
	p := buildPostings(slots, segs, buf.pos)
	for i, j := range p.pos {
		p.pos[i] = sel[j]
	}
	buf.sel, buf.slots, buf.pos = sel, slots, p.pos
	for seg := range segs {
		if rows := p.of(int32(seg)); len(rows) > 0 {
			f.run(int32(seg%g), rows)
		}
	}
	return f.result()
}

// foldBuf is a grouped decode fold's scratch: the survivors, their
// segments and the survivors grouped by segment.
type foldBuf struct{ sel, slots, pos []int32 }

var foldBufs = sync.Pool{New: func() any { return new(foldBuf) }}

// resize returns s's storage, reallocated if it is short, as n elements
// the caller overwrites.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// decodeRows writes the rows set in words, the set's words from w0 on, to
// rows in ascending order (full words copy as runs) and returns how many.
func decodeRows(words []uint64, w0 int, rows []int32) int {
	n := 0
	for w, word := range words {
		base := int32((w0 + w) << 6)
		if word == ^uint64(0) {
			for j := range rows[n : n+64] {
				rows[n+j] = base + int32(j)
			}
			n += 64
			continue
		}
		for ; word != 0; word &= word - 1 {
			rows[n] = base + int32(bits.TrailingZeros64(word))
			n++
		}
	}
	return n
}

// foldWindowShift sets the base-row window a grouped pass folds for every
// slot before it moves on, so the window's rows of each aggregate's
// column are still in cache when the next slot reads them. Folding each
// slot over the whole table instead read lineitem's columns from memory
// once per group: in the 22-template mix of BenchmarkExecuteTPCHWarm,
// Q1's fold took 4.7 ms per query whole and 3.1–3.4 ms with windows of
// 4 096 to 32 768 rows.
const foldWindowShift = 14

// foldWindows returns the window of a grouped pass over n rows in g
// slots as a shift — 1<<foldWindowShift rows, doubled while the (window,
// slot) segments would outnumber n/16 — and the number of segments.
// Segment (r>>shift)·g + s holds slot s's rows r in one window, so
// segment order keeps each slot's rows ascending.
func foldWindows(n, g int) (shift, segs int) {
	shift = foldWindowShift
	for 1<<shift < n && (n>>shift+1)*g > n/16 {
		shift++
	}
	return shift, max(1, (n+1<<shift-1)>>shift) * g
}

// slotLists is one dictionary column's rows grouped by (window, slot)
// segment (foldWindows; a slot is code+1, NULL 0) over one layout:
// segment seg holds pairs[start[seg]:start[seg+1]], ascending by base
// row.
type slotLists struct {
	slots int
	start []int32
	pairs []posRow
}

// posRow is a row's layout position and base row.
type posRow struct{ pos, row int32 }

// slotListsFor returns table.col's slot lists laid out by order, cached
// per layout.
func (e *Engine) slotListsFor(table, col string, order *block.RowOrder) *slotLists {
	return cachedOn(&e.mu, e.groups, colKey{table, col}, order, func() *slotLists {
		d := e.dictFor(table, col)
		n, g := e.ds.Table(table).NumRows(), d.NumCodes()+1
		shift, segs := foldWindows(n, g)
		posOf := make([]int32, n)
		seg := make([]int32, n)
		for r := range seg {
			seg[r] = -1 // a row the layout does not hold is in no list
		}
		for p, r := range order.Rows {
			if r >= 0 {
				posOf[r], seg[r] = int32(p), (r>>shift)*int32(g)+d.Code(int(r))+1
			}
		}
		p := buildPostings(seg, segs, nil)
		l := &slotLists{slots: g, start: p.start, pairs: make([]posRow, len(p.pos))}
		for i, r := range p.pos {
			l.pairs[i] = posRow{posOf[r], r}
		}
		return l
	})
}

// foldPositions computes fs's aggregates over the survivors of set, count
// positions of the layout order lays out, in the row-order pass. A grouped
// fold on a dictionary column whose survivors are at least
// 1/denseFoldDivisor of the table filters the layout's slot lists through
// set a run at a time; every other fold maps the survivors back to base
// rows (foldMaterialized).
func (e *Engine) foldPositions(fs *foldSpec, set bitmap.Dense, order *block.RowOrder, count int) ([]AggValue, error) {
	n := fs.tbl.NumRows()
	if fs.group.IsZero() || e.groupDictFor(fs.table, fs.group.Column) == nil || count*denseFoldDivisor < n {
		rows := grabDense(n)
		defer putDense(rows)
		baseRows(set, order, rows.dense())
		return e.foldMaterialized(fs, rows.dense())
	}
	return e.foldSlotLists(fs, set, order)
}

// foldSlotLists is the dense row source: each segment's cached (position,
// base row) pairs, filtered through the position set set a run at a time.
func (e *Engine) foldSlotLists(fs *foldSpec, set bitmap.Dense, order *block.RowOrder) ([]AggValue, error) {
	f := e.newRowFold(fs)
	l := e.slotListsFor(fs.table, fs.group.Column, order)
	var run [foldRunRows]int32
	for seg := 0; seg+1 < len(l.start); seg++ {
		s := seg % l.slots
		pairs := l.pairs[l.start[seg]:l.start[seg+1]]
		for len(pairs) > 0 {
			chunk := pairs[:min(len(pairs), foldRunRows)]
			pairs = pairs[len(chunk):]
			n := 0
			for _, pr := range chunk {
				run[n] = pr.row
				n += int(set[pr.pos>>6] >> (pr.pos & 63) & 1)
			}
			if n > 0 {
				f.run(int32(s), run[:n])
			}
		}
	}
	return f.result()
}

// slotAggs assembles specs' AggValues from per-slot results: slot 0 when
// ungrouped, else one group per live slot, in the order given.
func slotAggs(gb workload.GroupBy, specs []workload.Aggregate, live []int,
	key func(slot int) value.Value, val func(k, slot int) value.Value) []AggValue {

	out := make([]AggValue, len(specs))
	for k, spec := range specs {
		if gb.IsZero() {
			out[k] = AggValue{Spec: spec, Value: val(k, 0)}
			continue
		}
		av := AggValue{Spec: spec, Value: value.Null, GroupBy: gb, Groups: make([]GroupValue, 0, len(live))}
		for _, slot := range live {
			av.Groups = append(av.Groups, GroupValue{Key: key(slot), Value: val(k, slot)})
		}
		out[k] = av
	}
	return out
}
