package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/value"
	"mto/internal/workload"
)

// This file implements the grouped half of TableFold: per-group folds
// keyed on the group column's dictionary codes, computed per block directly
// over encoded pages. The group key space is
// the engine's global sorted-rank ColumnDict (slot 0 = NULL group, slot
// c+1 = code c), so accumulation happens in dense per-slot arrays instead
// of a hash map; block-local dictionaries bridge into the global one via
// the sorted-rank contract (one merge for dict string pages, rank lookups
// for int pages). Blocks whose zone map proves a single group value
// (min == max on the group column — the common case under clustered MTO
// layouts) short-circuit to the flat word-wide fold into that one slot;
// everything else assigns per-row slots once and scatter-folds each
// aggregate at survivor positions. CompileFold decides support once for
// both shapes; group dictionaries wider than block.MaxGroupSlots leave
// every aggregate unsupported (counted in Stats.GroupedFoldsDeclined) so
// dense accumulators stay bounded.

// foldGroups is the grouped body of FoldBlock: local holds the block's pop
// localized survivors.
func (t *TableFold) foldGroups(eb *EncodedBlock, nrows int, local []uint64, pop int, gs *block.GroupedStates, sc *scratch) error {
	gname := t.group.Column
	gpv, err := parsePage(eb.Cols[t.gcol], nrows)
	if err != nil {
		return fmt.Errorf("colstore: group column %s.%s: %w", t.table, gname, err)
	}
	// Zone single-group short-circuits: an all-null block (iv.Empty) is
	// one NULL group; a min==max block holds one non-null group value, so
	// the grouped fold degenerates to the flat word-wide fold into that
	// slot (split against the group page's null bitmap when it has one).
	iv := eb.Block.Zone.Column(gname)
	if iv.Empty {
		return t.foldSingleGroup(eb, nrows, local, pop, 0, gs, sc)
	}
	if slot, ok := t.singleZoneSlot(iv); ok {
		if gpv.nulls == nil {
			return t.foldSingleGroup(eb, nrows, local, pop, slot, gs, sc)
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
			if err := t.foldSingleGroup(eb, nrows, nullm, pop-npop, 0, gs, sc); err != nil {
				return err
			}
		}
		return t.foldSingleGroup(eb, nrows, nn, npop, slot, gs, sc)
	}
	// Multi-group block: resolve each survivor's global slot once, then
	// scatter-fold every aggregate against the shared slot array.
	slots := sc.grabSlots(nrows)
	if err := t.groupSlots(gpv, nrows, local, slots, sc); err != nil {
		return fmt.Errorf("colstore: group column %s.%s: %w", t.table, gname, err)
	}
	for w, word := range local {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			gs.Rows[slots[base+bits.TrailingZeros64(word)]]++
		}
	}
	for k := range t.aggs {
		if !t.supported[k] || t.cols[k] < 0 || gs.Aggs[k] == nil {
			continue
		}
		if err := t.foldColumnGrouped(k, eb, nrows, local, slots, gs.Aggs[k], sc); err != nil {
			return fmt.Errorf("colstore: aggregate %s.%s: %w", t.table, t.aggs[k].Column, err)
		}
	}
	return nil
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
// int and raw string pages decode into pooled scratch and rank values in
// the global dictionary, memoizing the previous row's translation so
// clustered runs cost one comparison per row.
func (t *TableFold) groupSlots(gpv pageView, nrows int, local []uint64, slots []int32, sc *scratch) error {
	d := t.group.Dict
	isNull := func(i int) bool { return gpv.nulls != nil && gpv.nulls[i>>3]>>(uint(i)&7)&1 == 1 }
	switch gpv.enc {
	case encStrDict:
		r := &bufReader{buf: gpv.body}
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
		packed := r.buf[r.off:]
		if need := (n*width + 7) / 8; len(packed) < need {
			return fmt.Errorf("colstore: bit-packed payload truncated: have %d bytes, need %d", len(packed), need)
		}
		// Both dictionaries are sorted distinct-value lists (the shared
		// sorted-rank contract), so local code → global slot is one merge.
		// Page dicts may be supersets (they encode the backing values at
		// null slots); those entries translate to -1 and are only ever
		// referenced by null rows, which land in slot 0 before the lookup.
		lg := sc.grabLG(nd)
		j := 0
		for c := 0; c < nd; c++ {
			e := gpv.body[offs[c] : offs[c]+lens[c]]
			for j < len(d.Strs) && bytesCompareString(e, d.Strs[j]) > 0 {
				j++
			}
			if j < len(d.Strs) && bytesCompareString(e, d.Strs[j]) == 0 {
				lg[c] = int32(j) + 1
			} else {
				lg[c] = -1
			}
		}
		if popcountMask(local)*4 < n {
			// Sparse survivors: random-access the packed codes with the
			// same inlined word-load extraction the flat fold uses instead
			// of unpacking the whole page.
			lut := uint64(1)<<width - 1
			safe := (len(packed) - 8) << 3
			for w, word := range local {
				base := w << 6
				for ; word != 0; word &= word - 1 {
					i := base + bits.TrailingZeros64(word)
					if isNull(i) {
						slots[i] = 0
						continue
					}
					var c uint64
					if bp := i * width; bp <= safe && width > 0 {
						c = binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7) & lut
					} else {
						c = unpackAt(packed, i, width)
					}
					if c >= uint64(nd) {
						return fmt.Errorf("dictionary code %d out of range %d", c, nd)
					}
					g := lg[c]
					if g < 0 {
						return fmt.Errorf("dictionary entry %q missing from the global group dictionary",
							string(gpv.body[offs[c]:offs[c]+lens[c]]))
					}
					slots[i] = g
				}
			}
			return nil
		}
		codes := sc.grabWords(n)
		if err := unpackBitsInto(codes, packed, width); err != nil {
			return err
		}
		for w, word := range local {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				i := base + bits.TrailingZeros64(word)
				if isNull(i) {
					slots[i] = 0
					continue
				}
				c := codes[i]
				if c >= uint64(nd) {
					return fmt.Errorf("dictionary code %d out of range %d", c, nd)
				}
				g := lg[c]
				if g < 0 {
					return fmt.Errorf("dictionary entry %q missing from the global group dictionary",
						string(gpv.body[offs[c]:offs[c]+lens[c]]))
				}
				slots[i] = g
			}
		}
		return nil
	case encIntRaw, encIntFOR, encIntDelta:
		if gpv.enc == encIntFOR {
			// Sparse survivors on FOR pages: random-access packed codes
			// (value = frame + code) instead of decoding the whole page.
			// Any header problem falls through to the full decode, which
			// reports it.
			r := &bufReader{buf: gpv.body}
			n := r.count(0)
			if r.checkCount(n, nrows) {
				min := r.varint()
				width := int(r.u8())
				if r.fail == nil && width < 64 {
					packed := r.buf[r.off:]
					if need := (n*width + 7) / 8; len(packed) >= need && popcountMask(local)*4 < n {
						lastV := int64(0)
						lastSlot := int32(-1)
						for w, word := range local {
							base := w << 6
							for ; word != 0; word &= word - 1 {
								i := base + bits.TrailingZeros64(word)
								if isNull(i) {
									slots[i] = 0
									continue
								}
								v := min + int64(unpackAt(packed, i, width))
								if lastSlot < 0 || v != lastV {
									g := intRank(d.Ints, v)
									if g < 0 {
										return fmt.Errorf("group value %d missing from the global group dictionary", v)
									}
									lastV, lastSlot = v, g+1
								}
								slots[i] = lastSlot
							}
						}
						return nil
					}
				}
			}
		}
		vals, err := decodeIntsScratch(gpv, nrows, sc)
		if err != nil {
			return err
		}
		lastV := int64(0)
		lastSlot := int32(-1)
		for w, word := range local {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				i := base + bits.TrailingZeros64(word)
				if isNull(i) {
					slots[i] = 0
					continue
				}
				v := vals[i]
				if lastSlot < 0 || v != lastV {
					g := intRank(d.Ints, v)
					if g < 0 {
						return fmt.Errorf("group value %d missing from the global group dictionary", v)
					}
					lastV, lastSlot = v, g+1
				}
				slots[i] = lastSlot
			}
		}
		return nil
	case encStrRaw:
		r := &bufReader{buf: gpv.body}
		n := r.count(1)
		if !r.checkCount(n, nrows) {
			return r.err()
		}
		lastSlot := int32(-1)
		var lastB []byte
		for k := 0; k < n; k++ {
			ln := r.count(1)
			b := r.bytes(ln)
			if r.fail != nil {
				return r.err()
			}
			if local[k>>6]>>(uint(k)&63)&1 == 0 {
				continue
			}
			if isNull(k) {
				slots[k] = 0
				continue
			}
			if lastSlot < 0 || !bytes.Equal(b, lastB) {
				g := strRank(d.Strs, b)
				if g < 0 {
					return fmt.Errorf("group value %q missing from the global group dictionary", string(b))
				}
				lastB, lastSlot = b, g+1
			}
			slots[k] = lastSlot
		}
		return nil
	default:
		return fmt.Errorf("unsupported group-column encoding 0x%02x", gpv.enc)
	}
}

// foldColumnGrouped scatter-folds one aggregate over a multi-group block:
// each non-null survivor accumulates into its slot's state.
func (t *TableFold) foldColumnGrouped(k int, eb *EncodedBlock, nrows int, local []uint64, slots []int32, sts []block.AggState, sc *scratch) error {
	spec := t.aggs[k]
	kind := t.st.seg.cols[t.cols[k]].kind
	pv, err := parsePage(eb.Cols[t.cols[k]], nrows)
	if err != nil {
		return err
	}
	masked := local
	if pv.nulls != nil {
		masked = sc.grabMaskDirty(len(local))
		defer sc.releaseMask(masked)
		if clearNullsInto(masked, local, pv.nulls) == 0 {
			return nil
		}
	}
	switch spec.Op {
	case workload.AggCount:
		for w, word := range masked {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				sts[slots[base+bits.TrailingZeros64(word)]].Count++
			}
		}
		return nil
	case workload.AggSum, workload.AggAvg:
		return foldSumIntGrouped(pv, nrows, masked, slots, sts, sc)
	default: // AggMin / AggMax
		if kind == value.KindString {
			return foldMinMaxStrGrouped(pv, spec.Op, nrows, masked, slots, sts, sc)
		}
		return foldMinMaxIntGrouped(pv, spec.Op, nrows, masked, slots, sts, sc)
	}
}

// foldSumIntGrouped scatters Σ col into per-group states. FOR pages never
// decode: sparse survivor sets random-access the packed codes with the
// same inlined word-load extraction the flat fold uses, dense ones unpack
// once into scratch; either way the value is frame + code, accumulated
// per slot. The compile-time zone bound proves every per-group partial
// sum (a subset of the survivors) fits int64. Delta and raw pages decode
// into pooled scratch.
func foldSumIntGrouped(pv pageView, nrows int, masked []uint64, slots []int32, sts []block.AggState, sc *scratch) error {
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
			if popcountMask(masked)*4 < n {
				lut := uint64(1)<<width - 1
				safe := (len(packed) - 8) << 3
				for w, word := range masked {
					base := w << 6
					for ; word != 0; word &= word - 1 {
						idx := base + bits.TrailingZeros64(word)
						var c uint64
						if bp := idx * width; bp <= safe {
							c = binary.LittleEndian.Uint64(packed[bp>>3:]) >> (bp & 7) & lut
						} else {
							c = unpackAt(packed, idx, width)
						}
						st := &sts[slots[idx]]
						st.Sum += min + int64(c)
						st.Count++
					}
				}
				return nil
			}
			codes := sc.grabWords(n)
			if err := unpackBitsInto(codes, packed, width); err != nil {
				return err
			}
			for w, word := range masked {
				base := w << 6
				for ; word != 0; word &= word - 1 {
					idx := base + bits.TrailingZeros64(word)
					st := &sts[slots[idx]]
					st.Sum += min + int64(codes[idx])
					st.Count++
				}
			}
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
			idx := base + bits.TrailingZeros64(word)
			st := &sts[slots[idx]]
			st.Sum += vals[idx]
			st.Count++
		}
	}
	return nil
}

// foldMinMaxIntGrouped scatters per-group int extremes. Zone
// short-circuits do not apply (the zone interval spans all groups), so
// every encoding decodes into pooled scratch and folds per survivor.
func foldMinMaxIntGrouped(pv pageView, op workload.AggOp, nrows int, masked []uint64, slots []int32, sts []block.AggState, sc *scratch) error {
	vals, err := decodeIntsScratch(pv, nrows, sc)
	if err != nil {
		return err
	}
	for w, word := range masked {
		base := w << 6
		for ; word != 0; word &= word - 1 {
			idx := base + bits.TrailingZeros64(word)
			foldExtremeInt(op, vals[idx], &sts[slots[idx]])
		}
	}
	return nil
}

// foldMinMaxStrGrouped scatters per-group string extremes, comparing
// entry bytes in place and materializing a string only when a group's
// extreme improves.
func foldMinMaxStrGrouped(pv pageView, op workload.AggOp, nrows int, masked []uint64, slots []int32, sts []block.AggState, sc *scratch) error {
	wantMin := op == workload.AggMin
	improve := func(idx int, b []byte) {
		st := &sts[slots[idx]]
		if wantMin {
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
		for w, word := range masked {
			base := w << 6
			for ; word != 0; word &= word - 1 {
				idx := base + bits.TrailingZeros64(word)
				c := codes[idx]
				if c >= uint64(nd) {
					return fmt.Errorf("dictionary code %d out of range %d", c, nd)
				}
				improve(idx, pv.body[offs[c]:offs[c]+lens[c]])
			}
		}
		return nil
	case encStrRaw:
		n := r.count(1)
		if !r.checkCount(n, nrows) {
			return r.err()
		}
		for k := 0; k < n; k++ {
			ln := r.count(1)
			b := r.bytes(ln)
			if r.fail != nil {
				return r.err()
			}
			if masked[k>>6]>>(uint(k)&63)&1 == 0 {
				continue
			}
			improve(k, b)
		}
		return nil
	default:
		return fmt.Errorf("unknown string encoding 0x%02x", pv.enc)
	}
}

// intRank is the rank of v in a sorted distinct list, -1 when absent.
func intRank(sorted []int64, v int64) int32 {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == v {
		return int32(lo)
	}
	return -1
}

// strRank is the rank of b in a sorted distinct string list, -1 when
// absent, comparing bytes in place.
func strRank(sorted []string, b []byte) int32 {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytesCompareString(b, sorted[mid]) > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && bytesCompareString(b, sorted[lo]) == 0 {
		return int32(lo)
	}
	return -1
}
