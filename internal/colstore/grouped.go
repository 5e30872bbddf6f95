package colstore

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
)

// This file implements the grouped half of TableFold: per-group folds
// keyed on the group column's dictionary codes, computed per block directly
// over encoded pages. The group key space is the engine's global
// sorted-rank ColumnDict (slot 0 = NULL group, slot c+1 = code c), so
// accumulation happens in dense per-slot arrays instead of a hash map;
// block-local dictionaries bridge into the global one via the sorted-rank
// contract (one merge for dict string pages, rank lookups for int pages).
// Blocks whose zone map proves a single group value (min == max on the
// group column — the common case under clustered MTO layouts) short-circuit
// to the one-slot fold into that slot; everything else assigns per-row
// slots once and hands them to the same kernels (aggregate.go), which then
// scatter at survivor positions. CompileFold decides support once for both
// shapes; group dictionaries wider than block.MaxGroupSlots leave every
// aggregate unsupported (counted in Stats.GroupedFoldsDeclined) so dense
// accumulators stay bounded.

// foldGroups is the grouped body of FoldBlock: local holds the block's pop
// survivors.
func (t *TableFold) foldGroups(eb *EncodedBlock, nrows int, local []uint64, pop int, gs *block.GroupedStates, sc *scratch) error {
	gname := t.group.Column
	gpv, err := parsePage(eb.Cols[t.gcol], nrows)
	if err != nil {
		return fmt.Errorf("colstore: group column %s.%s: %w", t.table, gname, err)
	}
	// Zone single-group short-circuits: an all-null block (iv.Empty) is
	// one NULL group; a min==max block holds one non-null group value, so
	// the grouped fold degenerates to the one-slot fold into that slot
	// (split against the group page's null bitmap when it has one).
	iv := eb.Block.Zone.Column(gname)
	if iv.Empty {
		return t.foldRows(eb, nrows, local, pop, 0, nil, gs, sc)
	}
	if slot, ok := t.singleZoneSlot(iv); ok {
		if gpv.nulls == nil {
			return t.foldRows(eb, nrows, local, pop, slot, nil, gs, sc)
		}
		nn := sc.grabMaskDirty(len(local))
		defer sc.releaseMask(nn)
		npop := clearNullsInto(nn, local, gpv.nulls)
		if npop < pop {
			nullm := sc.grabMaskDirty(len(local))
			defer sc.releaseMask(nullm)
			for i := range local {
				nullm[i] = local[i] &^ nn[i]
			}
			if err := t.foldRows(eb, nrows, nullm, pop-npop, 0, nil, gs, sc); err != nil {
				return err
			}
		}
		return t.foldRows(eb, nrows, nn, npop, slot, nil, gs, sc)
	}
	// Multi-group block: resolve each survivor's global slot once, then
	// scatter every aggregate against the shared slot array.
	slots := sc.grabSlots(nrows)
	if err := t.groupSlots(gpv, nrows, local, pop, slots, sc); err != nil {
		return fmt.Errorf("colstore: group column %s.%s: %w", t.table, gname, err)
	}
	return t.foldRows(eb, nrows, local, pop, 0, slots, gs, sc)
}

// singleZoneSlot reports the single global group slot a min==max zone
// interval proves, when the bounds carry the dictionary's kind and the
// value is known to the global dictionary (it always is for segments
// built from the dictionary's base table; unknown values fall through to
// the general per-row path, which reports them as errors if actually hit).
func (t *TableFold) singleZoneSlot(iv predicate.Interval) (int, bool) {
	k := t.group.Dict.Kind
	if iv.Min.Kind() != k || iv.Max.Kind() != k {
		return 0, false
	}
	switch k {
	case value.KindInt:
		if iv.Min.Int() != iv.Max.Int() {
			return 0, false
		}
	case value.KindString:
		if iv.Min.Str() != iv.Max.Str() {
			return 0, false
		}
	default:
		return 0, false
	}
	lo, _, exists := t.group.Dict.CodeRange(iv.Min)
	if !exists {
		return 0, false
	}
	return int(lo) + 1, true
}

// groupSlots writes each survivor's global group slot (0 = NULL group,
// code+1 otherwise) into slots. Dict string pages translate the
// block-local dictionary into the global one with a single sorted merge;
// int and raw string pages rank each survivor's value in the global
// dictionary (ColumnDict.IntCode: arithmetic for an interval dictionary),
// memoizing the previous row's translation so clustered runs cost one
// comparison per row.
func (t *TableFold) groupSlots(gpv pageView, nrows int, local []uint64, pop int, slots []int32, sc *scratch) error {
	d := t.group.Dict
	switch encKind(gpv.enc) {
	case value.KindString:
		v, err := gpv.strs(nrows, sc)
		if err != nil {
			return err
		}
		codes, err := v.codesAt(local, pop, sc)
		if err != nil {
			return err
		}
		if codes == nil {
			lastSlot := int32(-1)
			var lastB []byte
			for w, word := range local {
				base := w << 6
				for ; word != 0; word &= word - 1 {
					i := base + bits.TrailingZeros64(word)
					if gpv.isNull(i) {
						slots[i] = 0
						continue
					}
					if b := v.entry(i); lastSlot < 0 || !bytes.Equal(b, lastB) {
						g, ok := slices.BinarySearchFunc(d.Strs, b, func(s string, b []byte) int { return -bytesCompareString(b, s) })
						if !ok {
							return fmt.Errorf("group value %q missing from the global group dictionary", string(b))
						}
						lastB, lastSlot = b, int32(g)+1
					}
					slots[i] = lastSlot
				}
			}
			return nil
		}
		// Both dictionaries are sorted distinct-value lists (the shared
		// sorted-rank contract), so local code → global slot is one merge.
		// Page dicts may be supersets (they encode the backing values at
		// null slots); those entries translate to -1 and are only ever
		// referenced by null rows, which land in slot 0 before the lookup.
		lg := sc.grabLG(v.nd)
		j := 0
		for c := range lg {
			e := v.entry(c)
			for j < len(d.Strs) && bytesCompareString(e, d.Strs[j]) > 0 {
				j++
			}
			lg[c] = -1
			if j < len(d.Strs) && bytesCompareString(e, d.Strs[j]) == 0 {
				lg[c] = int32(j) + 1
			}
		}
		for w, word := range local {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				i := base + bits.TrailingZeros64(word)
				if gpv.isNull(i) {
					slots[i] = 0
					continue
				}
				g := lg[codes[i]]
				if g < 0 {
					return fmt.Errorf("dictionary entry %q missing from the global group dictionary", string(v.entry(int(codes[i]))))
				}
				slots[i] = g
			}
		}
		return nil
	case value.KindInt:
		v, err := gpv.ints(nrows, sc)
		if err != nil {
			return err
		}
		vals := v.valuesFor(pop, sc)
		lastV := int64(0)
		lastSlot := int32(-1)
		for w, word := range local {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				i := base + bits.TrailingZeros64(word)
				if gpv.isNull(i) {
					slots[i] = 0
					continue
				}
				if x := v.valueAt(vals, i); lastSlot < 0 || x != lastV {
					g := d.IntCode(x)
					if g < 0 {
						return fmt.Errorf("group value %d missing from the global group dictionary", x)
					}
					lastV, lastSlot = x, g+1
				}
				slots[i] = lastSlot
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported group-column encoding 0x%02x", gpv.enc)
	}
}
