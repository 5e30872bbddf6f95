package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

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
// instead.

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
	// rowRuns lazily memoizes, per block, whether the block's rows are a
	// word-aligned identity run [start, start+n) — every sequentially
	// installed layout — so repeated folds localize the survivor bitmap by
	// copying whole words instead of re-walking the row array. 0 =
	// unknown, 1 = identity run, -1 = general permutation. Accessed
	// atomically (concurrent folds race to store the same value).
	rowRuns []int32
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
		rowRuns:   make([]int32, seg.NumBlocks()),
	}
	if group.Column != "" {
		gi, ok := seg.colIndex(group.Column)
		if !ok || group.Dict == nil {
			return tf
		}
		if kind := seg.cols[gi].kind; kind != group.Dict.Kind ||
			(kind != value.KindInt && kind != value.KindString) {
			return tf
		}
		if group.Slots() > block.MaxGroupSlots {
			s.groupedDeclined.Add(1)
			return tf
		}
		tf.gcol = gi
	}
	for i, a := range aggs {
		tf.cols[i] = -1
		if a.Column == "" {
			// COUNT(*): a pure survivor popcount, no page bytes at all.
			tf.supported[i] = a.Op == workload.AggCount
			continue
		}
		ci, ok := seg.colIndex(a.Column)
		if !ok {
			continue
		}
		kind := seg.cols[ci].kind
		switch a.Op {
		case workload.AggCount:
			tf.supported[i] = true
		case workload.AggSum, workload.AggAvg:
			tf.supported[i] = kind == value.KindInt && sumFitsInt64(seg, a.Column)
		case workload.AggMin, workload.AggMax:
			tf.supported[i] = kind == value.KindInt || kind == value.KindString
		}
		if tf.supported[i] {
			tf.cols[i] = ci
		}
	}
	return tf
}

// sumFitsInt64 proves, from the segment footer's zone maps alone, that no
// subset of the column's values can overflow an int64 sum: it bounds
// Σ_b nrows_b · max(|min_b|, |max_b|) and requires it ≤ 2^62. Under that
// bound the per-block uint64 accumulation is exact (the true sum of any
// survivor subset fits int64, so arithmetic mod 2^64 loses nothing), and
// the engine's checked materialized fold can never overflow either — the
// two folds cannot diverge.
func sumFitsInt64(seg *Segment, col string) bool {
	const bound = uint64(1) << 62
	var total uint64
	for b := range seg.blocks {
		iv := seg.blocks[b].zone.Column(col)
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
// fold touches. survivors is the global-row survivor bitmap; positions
// outside the block are ignored.
func (t *TableFold) FoldBlock(id int, survivors []uint64, gs *block.GroupedStates) error {
	seg := t.st.seg
	if id < 0 || id >= seg.NumBlocks() {
		return fmt.Errorf("colstore: %s has no block %d", t.table, id)
	}
	eb, err := t.store.encodedBlock(t.table, t.st, id)
	if err != nil {
		return err
	}
	nrows := len(eb.Block.Rows)
	if nrows == 0 {
		return nil
	}
	sc := getScratch()
	defer putScratch(sc)
	local := sc.grabMaskDirty((nrows + 63) / 64)
	defer sc.releaseMask(local)
	pop := t.localizeSurvivors(id, eb, survivors, local)
	if pop == 0 {
		return nil
	}
	if t.gcol < 0 {
		return t.foldSingleGroup(eb, nrows, local, pop, 0, gs, sc)
	}
	return t.foldGroups(eb, nrows, local, pop, gs, sc)
}

// foldSingleGroup folds the masked survivors into one group slot with the
// word-wide flat kernels (frame·popcount sums, zone MIN/MAX, fused null
// clearing): the whole ungrouped fold, and the grouped fold's path for
// blocks whose zone map proves a single group value.
func (t *TableFold) foldSingleGroup(eb *EncodedBlock, nrows int, mask []uint64, pop, slot int, gs *block.GroupedStates, sc *scratch) error {
	if pop == 0 {
		return nil
	}
	gs.Rows[slot] += int64(pop)
	for k := range t.aggs {
		// COUNT(*) reads gs.Rows and needs no per-slot state.
		if !t.supported[k] || t.cols[k] < 0 || gs.Aggs[k] == nil {
			continue
		}
		if err := t.foldColumn(k, eb, nrows, mask, pop, &gs.Aggs[k][slot], sc); err != nil {
			return fmt.Errorf("colstore: aggregate %s.%s: %w", t.table, t.aggs[k].Column, err)
		}
	}
	return nil
}

// localizeSurvivors projects the global survivor bitmap onto the block's
// local row positions, writing every word of local and returning its
// popcount. A block whose rows are a word-aligned identity run
// [start, start+n) — every sequentially-installed layout — localizes by
// copying whole survivor words; arbitrary row permutations fall back to
// per-row bits. The per-block shape is immutable (the state is pinned to a
// segment generation), so the O(rows) detection runs once and is memoized.
func (t *TableFold) localizeSurvivors(id int, eb *EncodedBlock, survivors []uint64, local []uint64) int {
	nrows := len(eb.Block.Rows)
	start := int(eb.Block.Rows[0])
	run := atomic.LoadInt32(&t.rowRuns[id])
	if run == 0 {
		run = 1
		if start&63 != 0 {
			run = -1
		} else {
			for i, r := range eb.Block.Rows {
				if int(r) != start+i {
					run = -1
					break
				}
			}
		}
		atomic.StoreInt32(&t.rowRuns[id], run)
	}
	pop := 0
	if run == 1 {
		src := survivors[start>>6:]
		last := len(local) - 1
		for w := 0; w < last; w++ {
			v := src[w]
			local[w] = v
			pop += bits.OnesCount64(v)
		}
		v := src[last]
		if tail := nrows & 63; tail != 0 {
			v &= 1<<uint(tail) - 1
		}
		local[last] = v
		pop += bits.OnesCount64(v)
	} else {
		for i := range local {
			local[i] = 0
		}
		for i, r := range eb.Block.Rows {
			bit := survivors[r>>6] >> (uint(r) & 63) & 1
			local[i>>6] |= bit << (uint(i) & 63)
		}
		pop = popcountMask(local)
	}
	return pop
}

// foldColumn folds one column-bearing aggregate over the block.
func (t *TableFold) foldColumn(k int, eb *EncodedBlock, nrows int, local []uint64, pop int, st *block.AggState, sc *scratch) error {
	spec := t.aggs[k]
	kind := t.st.seg.cols[t.cols[k]].kind
	if spec.Op == workload.AggMin || spec.Op == workload.AggMax {
		// Zone short-circuits: an all-null block contributes nothing, a
		// block whose zone interval cannot beat the running extreme is
		// skipped, and a fully-selected block's extreme IS the zone bound
		// (zone min/max are the extreme non-null values, and nulls never
		// win MIN/MAX). None of the three touches a page byte.
		iv := eb.Block.Zone.Column(spec.Column)
		if iv.Empty {
			return nil
		}
		if zoneSkipsMinMax(spec.Op, iv, kind, st) {
			return nil
		}
		if pop == nrows && foldZoneMinMax(spec.Op, iv, kind, st) {
			return nil
		}
	}
	pv, err := parsePage(eb.Cols[t.cols[k]], nrows)
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
	switch spec.Op {
	case workload.AggCount:
		st.Count += int64(pop)
		return nil
	case workload.AggSum, workload.AggAvg:
		return foldSumInt(pv, nrows, masked, pop, st, sc)
	default: // AggMin / AggMax
		if kind == value.KindString {
			return foldMinMaxStr(pv, spec.Op, nrows, masked, st, sc)
		}
		return foldMinMaxInt(pv, spec.Op, nrows, masked, st, sc)
	}
}

// zoneSkipsMinMax reports whether the block zone interval proves the block
// cannot improve the running extreme. Skipping never changes the result:
// MIN/MAX folds are order-independent and monotone.
func zoneSkipsMinMax(op workload.AggOp, iv predicate.Interval, kind value.Kind, st *block.AggState) bool {
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
func foldZoneMinMax(op workload.AggOp, iv predicate.Interval, kind value.Kind, st *block.AggState) bool {
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

// foldSumInt folds Σ col over the non-null survivor mask. FOR pages never
// decode: Σ = frame·popcount + Σ packed codes at survivor positions,
// accumulated in uint64 — exact mod 2^64, and CompileFold's zone
// bound proves the true sum fits int64, so the cast back loses nothing.
// Sparse survivor sets random-access the packed codes instead of unpacking
// the whole page. Delta and raw pages decode into pooled scratch.
func foldSumInt(pv pageView, nrows int, masked []uint64, pop int, st *block.AggState, sc *scratch) error {
	if pv.enc == encIntFOR {
		r := &bufReader{buf: pv.body}
		n := r.count(0)
		if !r.checkCount(n, nrows) {
			return r.err()
		}
		min := r.varint()
		width := int(r.u8())
		if r.fail != nil {
			return r.err()
		}
		if width < 64 {
			packed := r.buf[r.off:]
			if need := (n*width + 7) / 8; len(packed) < need {
				return fmt.Errorf("colstore: bit-packed payload truncated: have %d bytes, need %d", len(packed), need)
			}
			var csum uint64
			if pop*4 < n {
				// Random-access the packed codes at survivor positions.
				// The extraction is unpackAt's word-load fast path
				// inlined; only positions whose 8-byte load would run off
				// the page take the byte-peeling call.
				lut := uint64(1)<<width - 1
				safe := (len(packed) - 8) << 3
				for w, word := range masked {
					base := w << 6
					for ; word != 0; word &= word - 1 {
						idx := base + bits.TrailingZeros64(word)
						if bp := idx * width; bp <= safe {
							csum += binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7) & lut
						} else {
							csum += unpackAt(packed, idx, width)
						}
					}
				}
			} else {
				codes := sc.grabWords(n)
				if err := unpackBitsInto(codes, packed, width); err != nil {
					return err
				}
				csum = sumCodes(codes, masked)
			}
			st.Sum += int64(uint64(min)*uint64(pop) + csum)
			st.Count += int64(pop)
			return nil
		}
	}
	vals, err := decodeIntsScratch(pv, nrows, sc)
	if err != nil {
		return err
	}
	for w, word := range masked {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			st.Sum += vals[base+bits.TrailingZeros64(word)]
		}
	}
	st.Count += int64(pop)
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

// foldMinMaxInt folds MIN/MAX over an int page. FOR pages compare in the
// packed unsigned domain (rebasing preserves order) and rebase the single
// winning code; other encodings decode into pooled scratch.
func foldMinMaxInt(pv pageView, op workload.AggOp, nrows int, masked []uint64, st *block.AggState, sc *scratch) error {
	if pv.enc == encIntFOR {
		r := &bufReader{buf: pv.body}
		n := r.count(0)
		if !r.checkCount(n, nrows) {
			return r.err()
		}
		min := r.varint()
		width := int(r.u8())
		if r.fail != nil {
			return r.err()
		}
		if width < 64 {
			codes := sc.grabWords(n)
			if err := unpackBitsInto(codes, r.buf[r.off:], width); err != nil {
				return err
			}
			if bc, have := extremeCode(codes, masked, op == workload.AggMax); have {
				foldExtremeInt(op, int64(bc+uint64(min)), st)
			}
			return nil
		}
	}
	vals, err := decodeIntsScratch(pv, nrows, sc)
	if err != nil {
		return err
	}
	var best int64
	have := false
	wantMax := op == workload.AggMax
	for w, word := range masked {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			v := vals[base+bits.TrailingZeros64(word)]
			if !have || (wantMax && v > best) || (!wantMax && v < best) {
				best, have = v, true
			}
		}
	}
	if have {
		foldExtremeInt(op, best, st)
	}
	return nil
}

// extremeCode returns the extreme packed code at the mask's set positions.
func extremeCode(codes []uint64, mask []uint64, wantMax bool) (uint64, bool) {
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
	return best, have
}

// foldMinMaxStr folds MIN/MAX over a string page. Dictionary codes are
// ranks in the sorted dictionary, so the extreme code IS the extreme
// value — one string materializes per block, with zero comparisons. Raw
// pages walk the entries and compare bytes in place.
func foldMinMaxStr(pv pageView, op workload.AggOp, nrows int, masked []uint64, st *block.AggState, sc *scratch) error {
	r := &bufReader{buf: pv.body}
	switch pv.enc {
	case encStrDict:
		n := r.count(0)
		if !r.checkCount(n, nrows) {
			return r.err()
		}
		nd := r.count(1)
		if r.fail != nil {
			return r.err()
		}
		offs, lens, err := indexDict(r, nd, sc)
		if err != nil {
			return err
		}
		width := int(r.u8())
		if r.fail != nil {
			return r.err()
		}
		codes := sc.grabWords(n)
		if err := unpackBitsInto(codes, r.buf[r.off:], width); err != nil {
			return err
		}
		bc, have := extremeCode(codes, masked, op == workload.AggMax)
		if !have {
			return nil
		}
		if bc >= uint64(nd) {
			return fmt.Errorf("dictionary code %d out of range %d", bc, nd)
		}
		foldExtremeStr(op, string(pv.body[offs[bc]:offs[bc]+lens[bc]]), st)
		return nil
	case encStrRaw:
		n := r.count(1)
		if !r.checkCount(n, nrows) {
			return r.err()
		}
		var best []byte
		have := false
		wantMax := op == workload.AggMax
		for k := 0; k < n; k++ {
			ln := r.count(1)
			b := r.bytes(ln)
			if r.fail != nil {
				return r.err()
			}
			if masked[k>>6]>>(uint(k)&63)&1 == 0 {
				continue
			}
			if !have || (wantMax && bytes.Compare(b, best) > 0) || (!wantMax && bytes.Compare(b, best) < 0) {
				best, have = b, true
			}
		}
		if have {
			foldExtremeStr(op, string(best), st)
		}
		return nil
	default:
		return fmt.Errorf("unknown string encoding 0x%02x", pv.enc)
	}
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

// popcountMask counts the set bits of a mask, one OnesCount64 per word.
func popcountMask(m []uint64) int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}
