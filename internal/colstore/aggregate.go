package colstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file implements compressed-domain aggregation pushdown: supported
// aggregates fold per block directly over the encoded column pages, never
// materializing survivor rows. Integer SUM over a FOR-packed page is
// frame·popcount(mask) + Σ packed deltas at survivor positions — computed
// in the packed unsigned domain with word-wide kernels; COUNT is a pure
// popcount against the page null bitmap; MIN/MAX consult the block zone
// map first and touch page bytes only when the block could improve the
// running extreme. Delta and raw integer pages decode into pooled scratch
// (like the compressed scan's fallback), so even they never allocate
// retained vectors. Floats and overflow-risk integer sums are declined at
// compile time and the engine folds them from the materialized vectors
// instead. Every kernel here serves both fold shapes: nil slots is the
// one-slot fold (the ungrouped fold, or a block proven to hold one group),
// which keeps the word-wide forms; a slot per row (grouped.go resolves
// them) scatters value by value.

// TableFold is one query's compiled fold over one table, pinned to the
// segment generation current at compile time. It is safe for concurrent
// use, but the GroupedStates passed to FoldBlock are the caller's to
// serialize.
type TableFold struct {
	store     *Store
	table     string
	st        *tableState
	aggs      []workload.Aggregate
	supported []bool
	cols      []int // segment column index per aggregate; -1 = COUNT(*)
	// group is the fold's group key and gcol the segment column index of
	// its column; gcol is -1 for the ungrouped fold, whose survivors all
	// land in slot 0.
	group block.GroupKey
	gcol  int
	// touched lists, ascending, the segment columns a block visit reads:
	// the supported aggregates' columns and the group column.
	touched []int
}

// CompileFold implements block.Backend: it decides, per aggregate, whether
// the fold can run over encoded pages. COUNT always can; MIN/MAX can for
// int and string columns; SUM/AVG only for int columns whose zone maps
// prove no survivor subset can overflow int64. Floats are never folded
// compressed — float addition is order-sensitive and the materialized
// fold's ascending row order defines the result. A grouped fold further
// needs its group column in the segment with the same int/string kind as
// the global dictionary, and the dictionary within block.MaxGroupSlots
// dense slots (wider ones are counted in Stats.GroupedFoldsDeclined);
// otherwise every aggregate is unsupported. Returns nil when the table has
// no segment.
func (s *Store) CompileFold(table string, group block.GroupKey, aggs []workload.Aggregate) block.Fold {
	st := s.state(table)
	if st == nil {
		return nil
	}
	seg := st.seg
	tf := &TableFold{
		store:     s,
		table:     table,
		st:        st,
		aggs:      append([]workload.Aggregate(nil), aggs...),
		supported: make([]bool, len(aggs)),
		cols:      make([]int, len(aggs)),
		group:     group,
		gcol:      -1,
	}
	if group.Column != "" {
		gi, ok := seg.schema.ColumnIndex(group.Column)
		if !ok || group.Dict == nil {
			return tf
		}
		if kind := seg.schema.Column(gi).Type; kind != group.Dict.Kind ||
			(kind != value.KindInt && kind != value.KindString) {
			return tf
		}
		if group.Slots() > block.MaxGroupSlots {
			s.groupedDeclined.Add(1)
			return tf
		}
		tf.gcol = gi
	}
	reads := make([]bool, seg.schema.NumColumns())
	if tf.gcol >= 0 {
		reads[tf.gcol] = true
	}
	for i, a := range aggs {
		tf.cols[i] = -1
		if a.Column == "" {
			// COUNT(*): a pure survivor popcount, no page bytes at all.
			tf.supported[i] = a.Op == workload.AggCount
			continue
		}
		ci, ok := seg.schema.ColumnIndex(a.Column)
		if !ok {
			continue
		}
		kind := seg.schema.Column(ci).Type
		switch a.Op {
		case workload.AggCount:
			tf.supported[i] = true
		case workload.AggSum, workload.AggAvg:
			tf.supported[i] = kind == value.KindInt && sumFitsInt64(seg, ci)
		case workload.AggMin, workload.AggMax:
			tf.supported[i] = kind == value.KindInt || kind == value.KindString
		}
		if tf.supported[i] {
			tf.cols[i], reads[ci] = ci, true
		}
	}
	tf.touched = setColumns(reads)
	return tf
}

// sumFitsInt64 proves, from the segment footer's zone maps alone, that no
// subset of the column's values can overflow an int64 sum: it bounds
// Σ_b nrows_b · max(|min_b|, |max_b|) and requires it ≤ 2^62. Under that
// bound the per-block uint64 accumulation is exact (the true sum of any
// survivor subset fits int64, so arithmetic mod 2^64 loses nothing), and
// the engine's checked materialized fold can never overflow either — the
// two folds cannot diverge.
func sumFitsInt64(seg *Segment, ci int) bool {
	const bound = uint64(1) << 62
	var total uint64
	for b := range seg.blocks {
		iv := seg.blocks[b].zone.Ranges().At(ci)
		if iv.Empty {
			continue // every value in the block is null
		}
		if iv.Min.Kind() != value.KindInt || iv.Max.Kind() != value.KindInt {
			return false
		}
		m := absInt64(iv.Min.Int())
		if x := absInt64(iv.Max.Int()); x > m {
			m = x
		}
		hi, lo := bits.Mul64(uint64(seg.blocks[b].nrows), m)
		if hi != 0 {
			return false
		}
		total += lo
		if total < lo || total > bound {
			return false
		}
	}
	return true
}

// absInt64 is |v| in uint64, exact for math.MinInt64.
func absInt64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// Supported implements block.Fold. Callers must not mutate the returned
// slice.
func (t *TableFold) Supported() []bool { return t.supported }

// FoldBlock implements block.Fold: every survivor of block id bumps
// gs.Rows at its group slot, and each supported aggregate with per-slot
// states accumulates its contribution, reading only the encoded pages the
// fold touches. local is the block's words of the position set, read in
// place.
func (t *TableFold) FoldBlock(id int, local []uint64, gs *block.GroupedStates) error {
	seg := t.st.seg
	if id < 0 || id >= seg.NumBlocks() {
		return fmt.Errorf("colstore: %s has no block %d", t.table, id)
	}
	nrows := seg.BlockRows(id)
	if len(local) != (nrows+63)/64 {
		return fmt.Errorf("colstore: %s block %d: survivors of %d words for %d rows", t.table, id, len(local), nrows)
	}
	pop := 0
	for _, w := range local {
		pop += bits.OnesCount64(w)
	}
	if pop == 0 {
		return nil
	}
	eb, err := t.store.encodedBlock(t.table, t.st, id, t.touched, false)
	if err != nil {
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	if t.gcol < 0 {
		return t.foldRows(eb, nrows, local, pop, 0, nil, gs, sc)
	}
	return t.foldGroups(eb, nrows, local, pop, gs, sc)
}

// foldRows folds the mask's pop survivors into gs. With nil slots they all
// land in the one group slot — the whole ungrouped fold, and the grouped
// fold's path for blocks whose zone map proves a single group value — and
// every aggregate takes its word-wide one-slot kernel; otherwise row i
// lands in slots[i] and the aggregates scatter.
func (t *TableFold) foldRows(eb *EncodedBlock, nrows int, mask []uint64, pop, slot int, slots []int32, gs *block.GroupedStates, sc *scratch) error {
	if pop == 0 {
		return nil
	}
	if slots == nil {
		gs.Rows[slot] += int64(pop)
	} else {
		for w, word := range mask {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				gs.Rows[slots[base+bits.TrailingZeros64(word)]]++
			}
		}
	}
	for k := range t.aggs {
		// COUNT(*) reads gs.Rows and needs no per-slot state.
		if !t.supported[k] || t.cols[k] < 0 || gs.Aggs[k] == nil {
			continue
		}
		sts := gs.Aggs[k]
		if slots == nil {
			sts = sts[slot : slot+1]
		}
		if err := t.foldColumn(k, eb, nrows, mask, pop, slots, sts, sc); err != nil {
			return fmt.Errorf("colstore: aggregate %s.%s: %w", t.table, t.aggs[k].Column, err)
		}
	}
	return nil
}

// foldColumn folds one column-bearing aggregate over the block into sts:
// the one state of a one-slot fold (nil slots), else one state per slot.
func (t *TableFold) foldColumn(k int, eb *EncodedBlock, nrows int, local []uint64, pop int, slots []int32, sts []block.AggState, sc *scratch) error {
	spec := t.aggs[k]
	kind := t.st.seg.schema.Column(t.cols[k]).Type
	if slots == nil && (spec.Op == workload.AggMin || spec.Op == workload.AggMax) {
		// Zone short-circuits: an all-null block contributes nothing, a
		// block whose zone interval cannot beat the running extreme is
		// skipped, and a fully-selected block's extreme IS the zone bound
		// (zone min/max are the extreme non-null values, and nulls never
		// win MIN/MAX). None of the three touches a page byte; none applies
		// to a scatter, whose zone interval spans all groups.
		iv := eb.Block.Zone.Ranges().At(t.cols[k])
		if iv.Empty {
			return nil
		}
		if zoneSkipsMinMax(spec.Op, iv, kind, &sts[0]) {
			return nil
		}
		if pop == nrows && foldZoneMinMax(spec.Op, iv, kind, &sts[0]) {
			return nil
		}
	}
	return foldPage(eb.Cols[t.cols[k]], spec.Op, kind, nrows, local, pop, slots, sts, sc)
}

// foldPage folds one aggregate over one column page: parse, clear the
// page's null rows from the survivors, then the op × kind kernel.
func foldPage(payload []byte, op workload.AggOp, kind value.Kind, nrows int, local []uint64, pop int, slots []int32, sts []block.AggState, sc *scratch) error {
	pv, err := parsePage(payload, nrows)
	if err != nil {
		return err
	}
	// Every fold below wants only non-null survivors; materialize
	// local &^ nulls into a second pooled mask, one fused pass that also
	// recounts the survivors.
	masked := local
	if pv.nulls != nil {
		masked = sc.grabMaskDirty(len(local))
		defer sc.releaseMask(masked)
		if pop = clearNullsInto(masked, local, pv.nulls); pop == 0 {
			return nil
		}
	}
	switch op {
	case workload.AggCount:
		if slots == nil {
			sts[0].Count += int64(pop)
			return nil
		}
		for w, word := range masked {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				sts[slots[base+bits.TrailingZeros64(word)]].Count++
			}
		}
		return nil
	case workload.AggSum, workload.AggAvg:
		return foldSumInt(pv, nrows, masked, pop, slots, sts, sc)
	default: // AggMin / AggMax
		if kind == value.KindString {
			return foldMinMaxStr(pv, op, nrows, masked, pop, slots, sts, sc)
		}
		return foldMinMaxInt(pv, op, nrows, masked, pop, slots, sts, sc)
	}
}

// slotOf is row i's index into a fold's states: 0 for a one-slot fold.
func slotOf(slots []int32, i int) int32 {
	if slots == nil {
		return 0
	}
	return slots[i]
}

// zoneSkipsMinMax reports whether the block zone interval proves the block
// cannot improve the running extreme. Skipping never changes the result:
// MIN/MAX folds are order-independent and monotone.
func zoneSkipsMinMax(op workload.AggOp, iv *predicate.Interval, kind value.Kind, st *block.AggState) bool {
	if !st.Seen {
		return false
	}
	if op == workload.AggMin {
		if kind == value.KindString {
			return iv.Min.Kind() == value.KindString && iv.Min.Str() >= st.MinS
		}
		return iv.Min.Kind() == value.KindInt && iv.Min.Int() >= st.MinI
	}
	if kind == value.KindString {
		return iv.Max.Kind() == value.KindString && iv.Max.Str() <= st.MaxS
	}
	return iv.Max.Kind() == value.KindInt && iv.Max.Int() <= st.MaxI
}

// foldZoneMinMax folds a fully-selected block's MIN/MAX straight from the
// zone interval. Reports false (fold not performed) when the interval does
// not carry a bound of the column's kind.
func foldZoneMinMax(op workload.AggOp, iv *predicate.Interval, kind value.Kind, st *block.AggState) bool {
	if op == workload.AggMin {
		if kind == value.KindString {
			if iv.Min.Kind() != value.KindString {
				return false
			}
			foldExtremeStr(op, iv.Min.Str(), st)
			return true
		}
		if iv.Min.Kind() != value.KindInt {
			return false
		}
		foldExtremeInt(op, iv.Min.Int(), st)
		return true
	}
	if kind == value.KindString {
		if iv.Max.Kind() != value.KindString {
			return false
		}
		foldExtremeStr(op, iv.Max.Str(), st)
		return true
	}
	if iv.Max.Kind() != value.KindInt {
		return false
	}
	foldExtremeInt(op, iv.Max.Int(), st)
	return true
}

func foldExtremeInt(op workload.AggOp, v int64, st *block.AggState) {
	if op == workload.AggMin {
		if !st.Seen || v < st.MinI {
			st.MinI = v
		}
	} else {
		if !st.Seen || v > st.MaxI {
			st.MaxI = v
		}
	}
	st.Seen = true
}

func foldExtremeStr(op workload.AggOp, v string, st *block.AggState) {
	if op == workload.AggMin {
		if !st.Seen || v < st.MinS {
			st.MinS = v
		}
	} else {
		if !st.Seen || v > st.MaxS {
			st.MaxS = v
		}
	}
	st.Seen = true
}

// foldExtremeBytes is foldExtremeStr over bytes aliasing a page: a string
// materializes only when the extreme improves.
func foldExtremeBytes(op workload.AggOp, b []byte, st *block.AggState) {
	if op == workload.AggMin {
		if !st.Seen || bytesCompareString(b, st.MinS) < 0 {
			st.MinS = string(b)
		}
	} else {
		if !st.Seen || bytesCompareString(b, st.MaxS) > 0 {
			st.MaxS = string(b)
		}
	}
	st.Seen = true
}

// foldSumInt folds Σ col over the non-null survivor mask. A one-slot fold
// in the packed domain never decodes: Σ = frame·popcount + Σ packed codes at
// survivor positions, accumulated in uint64 — exact mod 2^64, and
// CompileFold's zone bound proves the true sum (of any survivor subset,
// hence of every group) fits int64, so the cast back loses nothing. Every
// other shape adds value by value into the row's slot.
func foldSumInt(pv pageView, nrows int, masked []uint64, pop int, slots []int32, sts []block.AggState, sc *scratch) error {
	v, err := pv.ints(nrows, sc)
	if err != nil {
		return err
	}
	if slots == nil && v.packedDomain() {
		var csum uint64
		if v.sparse(pop) {
			for w, word := range masked {
				base := w << 6
				for ; word != 0; word &= word - 1 {
					csum += v.codeAt(base + bits.TrailingZeros64(word))
				}
			}
		} else {
			csum = sumCodes(v.unpack(sc), masked)
		}
		sts[0].Sum += int64(uint64(v.frame)*uint64(pop) + csum)
		sts[0].Count += int64(pop)
		return nil
	}
	vals := v.valuesFor(pop, sc)
	for w, word := range masked {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			i := base + bits.TrailingZeros64(word)
			st := &sts[slotOf(slots, i)]
			st.Sum += v.valueAt(vals, i)
			st.Count++
		}
	}
	return nil
}

// sumCodes sums the code words at the mask's set positions: zero mask
// words skip 64 rows branch-free, full words fold all 64 lanes through an
// 8-lane unrolled loop, and partial words peel set bits.
func sumCodes(codes []uint64, mask []uint64) uint64 {
	var sum uint64
	for w, word := range mask {
		if word == 0 {
			continue
		}
		base := w << 6
		if word == ^uint64(0) {
			c := codes[base : base+64 : base+64]
			for j := 0; j < 64; j += 8 {
				sum += c[j] + c[j+1] + c[j+2] + c[j+3] +
					c[j+4] + c[j+5] + c[j+6] + c[j+7]
			}
			continue
		}
		for ; word != 0; word &= word - 1 {
			sum += codes[base+bits.TrailingZeros64(word)]
		}
	}
	return sum
}

// foldMinMaxInt folds MIN/MAX over an int page, value by value into the
// row's slot.
func foldMinMaxInt(pv pageView, op workload.AggOp, nrows int, masked []uint64, pop int, slots []int32, sts []block.AggState, sc *scratch) error {
	v, err := pv.ints(nrows, sc)
	if err != nil {
		return err
	}
	vals := v.valuesFor(pop, sc)
	for w, word := range masked {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			i := base + bits.TrailingZeros64(word)
			foldExtremeInt(op, v.valueAt(vals, i), &sts[slotOf(slots, i)])
		}
	}
	return nil
}

// foldMinMaxStr folds MIN/MAX over a string page. Dictionary codes are
// ranks in the sorted dictionary, so a one-slot fold's extreme code IS its
// extreme value — zero string comparisons. Every other shape compares the
// row's bytes in place against its slot's running extreme.
func foldMinMaxStr(pv pageView, op workload.AggOp, nrows int, masked []uint64, pop int, slots []int32, sts []block.AggState, sc *scratch) error {
	v, err := pv.strs(nrows, sc)
	if err != nil {
		return err
	}
	codes, err := v.codesAt(masked, pop, sc)
	if err != nil {
		return err
	}
	if slots == nil && codes != nil {
		foldExtremeBytes(op, v.entry(int(extremeCode(codes, masked, op == workload.AggMax))), &sts[0])
		return nil
	}
	for w, word := range masked {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			i := base + bits.TrailingZeros64(word)
			foldExtremeBytes(op, v.row(codes, i), &sts[slotOf(slots, i)])
		}
	}
	return nil
}

// extremeCode returns the extreme code at the set positions of a non-empty
// mask.
func extremeCode(codes []uint64, mask []uint64, wantMax bool) uint64 {
	var best uint64
	have := false
	for w, word := range mask {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			c := codes[base+bits.TrailingZeros64(word)]
			if !have || (wantMax && c > best) || (!wantMax && c < best) {
				best, have = c, true
			}
		}
	}
	return best
}

// clearNullsInto writes local &^ nulls into dst and returns dst's
// popcount, all in one pass: eight null bytes load as one word, and the
// single possible partial word (ceil(n/64) exceeds the full null words by
// at most one) peels byte by byte.
func clearNullsInto(dst, local []uint64, nulls []byte) int {
	nw := len(nulls) >> 3
	if nw > len(dst) {
		nw = len(dst)
	}
	pop := 0
	for w := 0; w < nw; w++ {
		v := local[w] &^ binary.LittleEndian.Uint64(nulls[w<<3:])
		dst[w] = v
		pop += bits.OnesCount64(v)
	}
	if nw < len(dst) {
		v := local[nw]
		for bi := nw << 3; bi < len(nulls); bi++ {
			v &^= uint64(nulls[bi]) << ((bi & 7) * 8)
		}
		dst[nw] = v
		pop += bits.OnesCount64(v)
	}
	return pop
}
