package engine

import (
	"math/bits"
	"slices"

	"mto/internal/bitmap"
	"mto/internal/block"
	"mto/internal/relation"
)

// This file is the vectorized semijoin operator: keep the target alias's
// rows whose join key has (anti: has no) equal key among the source
// alias's rows. It runs one of three physical strategies over the two
// columns' dictionaries, whichever the cost rule (chooseStrategy) expects
// to be cheapest:
//
//   - probe: visit every target survivor and test its code against the
//     source's keys;
//   - target postings: for every source key, visit only the target rows
//     holding it, through the target column's code → rows index;
//   - source postings: for every target survivor, walk the source rows
//     holding its key until one source survivor turns up. This never
//     extracts the source's keys.
//
// The first two read the source's keys as a bitset over the target
// dictionary's slots (slot = code + 1; slot 0, NULL, NaN or absent from
// the target column, is never set), built straight from the source rows, so
// key extraction and code translation are one pass, and both run without
// a data-dependent branch per row. All three produce the same survivor
// bitmap (pinned by the strategy equivalence tests). Every join column
// has a dictionary (relation.ColumnDict encodes int, float and string
// columns). An empty side short-cuts every strategy, and so does a step
// that cannot remove a row: an unreduced source whose column holds every
// value of the target column (covers). Row sets, postings
// and the code vectors the strategies read are all laid out by the
// positions of the scanned layout (block.RowOrder), cached per layout.

// strategy is a semijoin's physical plan.
type strategy uint8

const (
	probeTarget strategy = iota
	targetPostings
	sourcePostings
	shortCut // either side is empty, or the source keeps every target row
)

// postings is a column's code → positions index in CSR form: the
// positions holding code c are pos[start[c]:start[c+1]], ascending. Null
// rows and padding are in no list.
type postings struct {
	start []int32
	pos   []int32
}

// buildPostings inverts a position → code vector over n codes by a
// counting sort, into pos's storage when it has the capacity.
func buildPostings(codes []int32, n int, pos []int32) *postings {
	p := &postings{start: make([]int32, n+1)}
	for _, c := range codes {
		if c >= 0 {
			p.start[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		p.start[c+1] += p.start[c]
	}
	p.pos = resize(pos, int(p.start[n]))
	next := append([]int32(nil), p.start[:n]...)
	for i, c := range codes {
		if c >= 0 {
			p.pos[next[c]] = int32(i)
			next[c]++
		}
	}
	return p
}

// of returns the positions holding code c.
func (p *postings) of(c int32) []int32 { return p.pos[p.start[c]:p.start[c+1]] }

// postingsFor returns the code → positions index of table.col laid out
// by order, cached per layout.
func (e *Engine) postingsFor(table, col string, order *block.RowOrder) *postings {
	return cachedOn(&e.mu, e.posts, colKey{table, col}, order, func() *postings {
		return buildPostings(e.codesFor(table, col, order), e.dictFor(table, col).NumCodes(), nil)
	})
}

// slotMap maps a code of one dictionary to the slot (code + 1) of the
// equal value in another, 0 for a null code or a value the other column
// never holds: through an array indexed by slot, or, between two interval
// dictionaries, by a shift (relation.IntervalShift) with no array at all.
type slotMap struct {
	arr      []int32 // from slot → to code (-1: none); nil for a shift
	shift, n uint32  // code c maps to c + shift when that is below n
}

// slot returns code c's slot. The form is loop-invariant, so a kernel's
// branch on it is predicted on every row.
func (m slotMap) slot(c int32) int32 {
	if m.arr != nil {
		return m.arr[c+1] + 1
	}
	if t := uint32(c) + m.shift; c >= 0 && t < m.n {
		return int32(t) + 1
	}
	return 0
}

// xlateFor returns the slot translation from column from's dictionary (fd)
// into column to's (td), so one side's codes index the other's key sets or
// postings without boxing a single value. An array is built once and
// cached; a shift needs none.
func (e *Engine) xlateFor(from colKey, fd *relation.ColumnDict, to colKey, td *relation.ColumnDict) slotMap {
	if shift, ok := relation.IntervalShift(fd, td); ok {
		return slotMap{shift: uint32(shift), n: uint32(td.NumCodes())}
	}
	return slotMap{arr: cached(&e.mu, e.xlate, xlateKey{from, to}, nil, func() []int32 {
		return append([]int32{-1}, relation.TranslateCodes(fd, td)...) // slot 0 is the null code
	})}
}

// covers reports whether every row of column tgt holds a value column src
// holds too, with no NULL or NaN row: then a source with all its rows
// keeps every target row. Two interval dictionaries cover when tgt's
// interval lies inside src's; otherwise no code of tgt translates to -1.
// It depends on the dataset only, so it is cached per column pair.
func (e *Engine) covers(tgt colKey, td *relation.ColumnDict, src colKey, sd *relation.ColumnDict) bool {
	return cached(&e.mu, e.cover, xlateKey{tgt, src}, nil, func() bool {
		if shift, ok := relation.IntervalShift(td, sd); ok {
			if shift < 0 || int(shift)+td.NumCodes() > sd.NumCodes() {
				return false
			}
		} else if slices.Contains(e.xlateFor(tgt, td, src, sd).arr[1:], -1) {
			return false
		}
		return !td.HasNulls()
	})
}

// Costs of the strategies' unit steps in nanoseconds, fitted by least
// squares to every semijoin step of the TPC-H, SSB and TPC-DS templates
// at SF 0.05 (x86-64): a source row's key set in the slot bitset, a
// target row probed, a target posting list opened and one of its rows
// visited, a target row's source posting list located and one step of it
// walked, and one bitset word swept; costShiftRow is costSlotRow when the
// translation is a shift, not an array. The rule's choices cost within
// 2–3 % of always picking the fastest strategy in hindsight.
const (
	costSlotRow    = 8.0
	costShiftRow   = 3.0
	costProbeRow   = 3.2
	costListOpen   = 5.0
	costPostingRow = 3.0
	costWalkRow    = 12.0
	costWalkStep   = 0.2
	costWord       = 1.5
)

// chooseStrategy returns the strategy expected to be cheapest for reducing
// tgtCount target survivors (dictionary tgt) by srcCount source survivors
// (dictionary src). Posting lengths are estimated as the column's rows
// per distinct code, and a source-postings walk is charged its whole list:
// a layout clusters the source survivors, so many lists hold none.
func chooseStrategy(tgtCount, srcCount int, anti bool, tgt, src *relation.ColumnDict) strategy {
	tRows, sRows := float64(tgt.NumRows()), float64(src.NumRows())
	tWords := tRows / 64
	tLen := tRows / float64(max(1, tgt.NumCodes()))
	sLen := sRows / float64(max(1, src.NumCodes()))
	srcKeys := float64(min(srcCount, src.NumCodes()))
	// The slot bitset: zeroed, then filled from a sweep of the source set.
	slotRow := costSlotRow
	if _, shifted := relation.IntervalShift(src, tgt); shifted {
		slotRow = costShiftRow
	}
	slots := slotRow*float64(srcCount) + costWord*(sRows+float64(tgt.NumCodes()))/64

	how, best := probeTarget, slots+costProbeRow*float64(tgtCount)+costWord*tWords
	// Target postings visit the matched target rows; unless anti, they
	// also rebuild the target set from them.
	rebuild := 2 * costWord * tWords
	if anti {
		rebuild = 0
	}
	if c := slots + srcKeys*(costListOpen+costPostingRow*tLen) + rebuild; c < best {
		how, best = targetPostings, c
	}
	if c := float64(tgtCount)*(costWalkRow+costWalkStep*sLen) + costWord*tWords; c < best {
		how = sourcePostings
	}
	return how
}

// semijoin is one directed semijoin: keep tgt's rows whose tgtCol key has
// (anti: has no) equal key among src's rows in srcCol.
type semijoin struct {
	tgt, src       *vecAlias
	tgtCol, srcCol string
	anti           bool
}

// semiPlan is a semijoin's strategy and the dictionaries of its target and
// source columns (nil under shortCut).
type semiPlan struct {
	how    strategy
	td, sd *relation.ColumnDict
}

// prepare chooses s's strategy. Both join columns must exist
// (joinColumnsExist). A step that cannot remove a row (covers) visits
// none; its caller still charges its probes. A self edge's source is its
// target, which source postings would walk while rewriting it, so it
// probes: the probe reads its whole source into slots first.
func (e *Engine) prepare(s semijoin) semiPlan {
	if s.tgt.count == 0 || s.src.count == 0 {
		return semiPlan{how: shortCut}
	}
	td, sd := e.dictFor(s.tgt.table, s.tgtCol), e.dictFor(s.src.table, s.srcCol)
	if !s.anti && s.src.count == sd.NumRows() &&
		e.covers(colKey{s.tgt.table, s.tgtCol}, td, colKey{s.src.table, s.srcCol}, sd) {
		return semiPlan{how: shortCut}
	}
	how := chooseStrategy(s.tgt.count, s.src.count, s.anti, td, sd)
	if how == sourcePostings && s.tgt == s.src {
		how = probeTarget
	}
	return semiPlan{how, td, sd}
}

// run reduces s's target by its source under plan p and reports whether
// the target shrank.
func (e *Engine) run(s semijoin, p semiPlan) bool {
	t, src := s.tgt, s.src
	var kept int
	switch p.how {
	case probeTarget, targetPostings:
		xl := e.xlateFor(colKey{src.table, s.srcCol}, p.sd, colKey{t.table, s.tgtCol}, p.td)
		slots := grabDense(p.td.NumCodes() + 1)
		keySlots(slots.dense(), src.set, e.codesFor(src.table, s.srcCol, src.order), xl)
		if p.how == probeTarget {
			kept = reduceProbe(t.set, e.codesFor(t.table, s.tgtCol, t.order), slots.dense(), s.anti)
		} else {
			tp := e.postingsFor(t.table, s.tgtCol, t.order)
			kept = reduceTargetPostings(t.set, t.count, tp, slots.dense(), s.anti)
		}
		putDense(slots)
	case sourcePostings:
		xl := e.xlateFor(colKey{t.table, s.tgtCol}, p.td, colKey{src.table, s.srcCol}, p.sd)
		sp := e.postingsFor(src.table, s.srcCol, src.order)
		kept = reduceSourcePostings(t.set, e.codesFor(t.table, s.tgtCol, t.order), xl, sp, src.set, s.anti)
	case shortCut:
		// An empty source matches no target row; an empty target has
		// nothing to drop, and a covering source drops nothing.
		if src.count == 0 && !s.anti {
			clear(t.set)
		} else {
			kept = t.count
		}
	}
	if kept == t.count {
		return false
	}
	t.count = kept
	t.version++
	return true
}

// keySlots sets in slots (zeroed, one bit per target slot) the target slot
// of every source row's key: codes is the source column's position → code
// vector and xl its slot translation into the target dictionary.
func keySlots(slots, rows bitmap.Dense, codes []int32, xl slotMap) {
	for w, word := range rows {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			s := uint32(xl.slot(codes[base|bits.TrailingZeros64(word)]))
			slots[s>>6] |= 1 << (s & 63)
		}
	}
	slots[0] &^= 1 // slot 0 collects nulls and keys the target never holds
}

// reduceProbe is the probe strategy: it keeps each set row whose slot
// (code + 1) is in slots — anti: is not — and returns the rows kept.
func reduceProbe(set bitmap.Dense, codes []int32, slots bitmap.Dense, anti bool) int {
	kept := 0
	for w, word := range set {
		if word == 0 {
			continue
		}
		base := w << 6
		var hit uint64
		for x := word; x != 0; x &= x - 1 {
			tz := bits.TrailingZeros64(x)
			s := uint32(codes[base|tz] + 1)
			hit |= (slots[s>>6] >> (s & 63) & 1) << tz
		}
		if anti {
			hit = word &^ hit
		}
		set[w] = hit
		kept += bits.OnesCount64(hit)
	}
	return kept
}

// reduceTargetPostings is the target-postings strategy: for each slot in
// slots it visits only the target rows holding that key (tp), so its cost
// is the source's key count plus the target rows with those keys. count
// is set's population; returns the rows kept.
func reduceTargetPostings(set bitmap.Dense, count int, tp *postings, slots bitmap.Dense, anti bool) int {
	if anti {
		cleared := 0
		for w, word := range slots {
			for ; word != 0; word &= word - 1 {
				for _, r := range tp.of(int32(w<<6|bits.TrailingZeros64(word)) - 1) {
					old := set[r>>6]
					set[r>>6] = old &^ (1 << (r & 63))
					cleared += int(old >> (r & 63) & 1)
				}
			}
		}
		return count - cleared
	}
	// Keep the matched rows only: gather them into a fresh set, then swap
	// it in.
	keep := grabDense(len(set) << 6)
	kw := keep.dense()
	for w, word := range slots {
		for ; word != 0; word &= word - 1 {
			for _, r := range tp.of(int32(w<<6|bits.TrailingZeros64(word)) - 1) {
				kw[r>>6] |= set[r>>6] & (1 << (r & 63))
			}
		}
	}
	kept := 0
	for w, word := range kw {
		set[w] = word
		kept += bits.OnesCount64(word)
	}
	putDense(keep)
	return kept
}

// reduceSourcePostings is the source-postings strategy: for each set row
// it translates the row's slot into the source dictionary (xl) and walks
// the source rows holding that key (sp) until one is in srcRows. Returns
// the rows kept.
func reduceSourcePostings(set bitmap.Dense, codes []int32, xl slotMap, sp *postings,
	srcRows bitmap.Dense, anti bool) int {

	kept := 0
	for w, word := range set {
		if word == 0 {
			continue
		}
		base := w << 6
		var hit uint64
		for x := word; x != 0; x &= x - 1 {
			tz := bits.TrailingZeros64(x)
			if s := xl.slot(codes[base|tz]); s != 0 {
				for _, r := range sp.of(s - 1) {
					if srcRows.Get(int(r)) {
						hit |= 1 << tz
						break
					}
				}
			}
		}
		if anti {
			hit = word &^ hit
		}
		set[w] = hit
		kept += bits.OnesCount64(hit)
	}
	return kept
}
