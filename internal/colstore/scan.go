package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mto/internal/block"
	"mto/internal/predicate"
	"mto/internal/relation"
	"mto/internal/value"
	"mto/internal/zonemap"
)

// This file implements compressed-domain predicate evaluation: filters
// compiled by predicate.CompileScan run directly over a block's encoded
// column pages. A block visit reads each page through one column slot, so
// a page is parsed once and its body decoded at most once however many
// leaves and alias programs name it. A leaf the block's zone map decides
// costs no decode at all; an undecided one compares codes where it can:
// dictionary-string pages translate the literal into a code (or code range
// — dictionaries are sorted), FOR-packed int pages rebase the literal into
// the packed unsigned domain, and delta/raw pages compare decoded values
// held in pooled scratch, never in retained vectors. Null rows are cleared
// from each leaf's mask straight off the raw page null bitmap. The
// semantics mirror predicate.FillMask exactly — both run normalized
// predicates through the same kernels — which is what makes a filter's
// mask byte-identical whether the backend evaluates it here or the
// reference engine evaluates it over the base table.

// TableScan is one query's compiled compressed scan over one table,
// pinned to the segment generation current at compile time. It is safe
// for concurrent use by parallel scan workers.
type TableScan struct {
	store  *Store
	table  string
	st     *tableState
	progs  []predicate.ScanNode // parallel to the CompileScan filters
	schema *relation.Schema     // the segment's: every leaf holds its column's ordinal
	// touched lists, ascending, the segment columns the pushed-down
	// filters name: the pages a block visit asks the pool for (none for an
	// unfiltered scan, which needs the row IDs only).
	touched []int
}

// CompileScan implements block.Backend: it compiles filters for
// compressed-domain evaluation against the table's current segment,
// normalizing every literal and binding every leaf to its column's
// ordinal in the segment's schema once per (query, table). Returns nil
// when the table has no segment.
func (s *Store) CompileScan(table string, filters []predicate.Predicate) block.Scan {
	st := s.state(table)
	if st == nil {
		return nil
	}
	seg := st.seg
	ts := &TableScan{
		store:  s,
		table:  table,
		st:     st,
		progs:  make([]predicate.ScanNode, len(filters)),
		schema: seg.schema,
	}
	reads := make([]bool, seg.schema.NumColumns())
	for i, f := range filters {
		ts.progs[i] = predicate.CompileScan(f, seg.schema)
		markReads(ts.progs[i], reads)
	}
	ts.touched = setColumns(reads)
	return ts
}

// markReads sets in reads the columns the leaves of the compiled program
// n read. Normalization has already turned a leaf that can match nothing
// (a NULL, NaN or other-kind literal, a missing column) into a constant,
// which reads no page.
func markReads(n predicate.ScanNode, reads []bool) {
	switch q := n.(type) {
	case *predicate.ScanAnd:
		for _, c := range q.Children {
			markReads(c, reads)
		}
	case *predicate.ScanOr:
		for _, c := range q.Children {
			markReads(c, reads)
		}
	case *predicate.ScanCmpCols:
		reads[q.Right] = true
	}
	if _, ord, _ := leafOf(n); ord >= 0 {
		reads[ord] = true
	}
}

// setColumns lists the set indexes of reads, ascending.
func setColumns(reads []bool) []int {
	var cols []int
	for ci, r := range reads {
		if r {
			cols = append(cols, ci)
		}
	}
	return cols
}

// RowOrder implements block.Scan: the position geometry of the segment
// generation the scan is pinned to.
func (t *TableScan) RowOrder() (*block.RowOrder, error) { return t.store.rowOrder(t.st) }

// ScanBlock implements block.Scan. It meters the block read exactly like
// Backend.ReadBlock, fetches the encoded block through the buffer pool, and
// evaluates every filter with a non-nil mask over the encoded pages in one
// visit, straight into that mask: the caller's words of the block.
func (t *TableScan) ScanBlock(id int, masks [][]uint64) (int, error) {
	seg := t.st.seg
	if id < 0 || id >= seg.NumBlocks() {
		return 0, fmt.Errorf("colstore: %s has no block %d", t.table, id)
	}
	t.store.blocksRead.Add(1)
	t.store.rowsRead.Add(int64(seg.BlockRows(id)))
	eb, err := t.store.encodedBlock(t.table, t.st, id, t.touched)
	if err != nil {
		return 0, err
	}
	nrows := seg.BlockRows(id)
	sc := getScratch()
	defer putScratch(sc)
	v := t.newVisit(eb, nrows, sc)
	for i, prog := range t.progs {
		if i >= len(masks) || masks[i] == nil {
			continue
		}
		if err = v.eval(prog, masks[i]); err != nil {
			break
		}
	}
	decodes := v.release()
	t.store.scanLeaves.Add(v.leaves)
	t.store.scanDecided.Add(v.decided)
	t.store.scanDecodes.Add(decodes)
	if err != nil {
		return 0, err
	}
	return nrows, nil
}

// visit is one block as a ScanBlock call reads it. Every leaf of every
// alias program reads the block's pages through one slot per column, so a
// page is parsed and decoded at most once per visit however many leaves
// name it; and a leaf the block's zone map decides reads no page body.
type visit struct {
	t     *TableScan
	eb    *EncodedBlock
	nrows int
	zone  *zonemap.ZoneMap // nil: the block has no zone map, nothing is decided
	sc    *scratch
	cols  []colSlot // per segment column

	leaves, decided int64 // Stats.ScanLeaves / ScanLeavesZoneDecided
}

func (t *TableScan) newVisit(eb *EncodedBlock, nrows int, sc *scratch) visit {
	v := visit{t: t, eb: eb, nrows: nrows, sc: sc, cols: sc.grabCols(len(eb.Cols))}
	if eb.Block != nil && eb.Block.Zone != nil {
		v.zone = eb.Block.Zone
	}
	return v
}

// release closes the visit's slots and returns how many page bodies it
// read (Stats.ScanPageDecodes).
func (v *visit) release() int64 {
	var decodes int64
	for i := range v.cols {
		if v.cols[i].decoded() {
			decodes++
		}
		if v.cols[i].opened {
			v.cols[i].release()
		}
	}
	return decodes
}

// eval evaluates one compiled node over the block into out, a zeroed local
// mask of the block's rows.
func (v *visit) eval(n predicate.ScanNode, out []uint64) error {
	return v.evalTri(n, v.decide(n), out)
}

// decide is a node's zone decision on the block: a constant's own value,
// a leaf's ZoneEval (TriMaybe when it has none, or the block no zone map),
// TriMaybe for AND and OR.
func (v *visit) decide(n predicate.ScanNode) predicate.Tri {
	if c, ok := n.(predicate.ScanConst); ok {
		if c {
			return predicate.TriTrue
		}
		return predicate.TriFalse
	}
	if zone, _, _ := leafOf(n); zone != nil && v.zone != nil {
		return zone(v.zone.Ranges())
	}
	return predicate.TriMaybe
}

// evalTri is eval given the node's decision.
func (v *visit) evalTri(n predicate.ScanNode, tri predicate.Tri, out []uint64) error {
	switch q := n.(type) {
	case predicate.ScanConst:
		if q {
			predicate.SetAll(out, v.nrows)
		}
		return nil
	case *predicate.ScanAnd:
		return v.combine(q.Children, true, out)
	case *predicate.ScanOr:
		return v.combine(q.Children, false, out)
	}
	return v.leaf(n, tri, out)
}

// combine evaluates the AND (and) or the OR of kids into out. Decided
// children run first — they read no page body, and one that empties an
// AND's mask or fills an OR's spares the undecided ones their decode —
// and evaluation stops as soon as no later child can change out.
func (v *visit) combine(kids []predicate.ScanNode, and bool, out []uint64) error {
	var buf [16]predicate.Tri
	tris := buf[:0]
	for _, c := range kids {
		tris = append(tris, v.decide(c))
	}
	tmp := v.sc.grabMaskDirty(len(out))
	defer v.sc.releaseMask(tmp)
	first := true
	for _, undecided := range [2]bool{false, true} {
		for i, c := range kids {
			if (tris[i] == predicate.TriMaybe) != undecided {
				continue
			}
			dst := out
			if !first {
				clear(tmp)
				dst = tmp
			}
			if err := v.evalTri(c, tris[i], dst); err != nil {
				return err
			}
			if !first {
				for w := range out {
					if and {
						out[w] &= tmp[w]
					} else {
						out[w] |= tmp[w]
					}
				}
			}
			first = false
			if and && isEmpty(out) || !and && isFull(out, v.nrows) {
				return nil
			}
		}
	}
	return nil
}

// leafOf is a column leaf's zone evaluator, the ordinal of the column it
// reads (a pair's left one) and that column's kind; a nil zone and -1 for
// AND, OR and constants.
func leafOf(n predicate.ScanNode) (predicate.ZoneEval, int, value.Kind) {
	switch q := n.(type) {
	case *predicate.ScanCmpInt:
		return q.Zone, q.Col, value.KindInt
	case *predicate.ScanBand:
		return q.Zone, q.Col, q.Lo.Kind()
	case *predicate.ScanCmpFloat:
		return nil, q.Col, value.KindFloat
	case *predicate.ScanCmpStr:
		return q.Zone, q.Col, value.KindString
	case *predicate.ScanInInt:
		return q.Zone, q.Col, value.KindInt
	case *predicate.ScanInStr:
		return q.Zone, q.Col, value.KindString
	case *predicate.ScanLike:
		return q.Zone, q.Col, value.KindString
	case *predicate.ScanCmpCols:
		return q.Zone, q.Left, q.LeftKind
	}
	return nil, -1, value.KindNull
}

// col opens the slot of the column of ordinal ci for a leaf reading kind,
// naming the column in any page error.
func (v *visit) col(ci int, kind value.Kind) (*colSlot, error) {
	s := &v.cols[ci]
	err := s.open(v.eb.Cols[ci], v.nrows)
	if err == nil && s.kind != kind {
		err = fmt.Errorf("encoding 0x%02x is not a %s page", s.pv.enc, kind)
	}
	if err != nil {
		return nil, v.t.pageErr(ci, err)
	}
	return s, nil
}

// leaf evaluates one column leaf into out. A leaf the zone map decides
// (tri) only validates its pages' views — counts, widths, payload lengths —
// and matches every non-null row or none; an undecided one runs its kernel
// over the slot's codes or values. Null rows are then cleared straight off
// the pages' null bitmaps.
func (v *visit) leaf(n predicate.ScanNode, tri predicate.Tri, out []uint64) error {
	_, ord, kind := leafOf(n)
	if ord < 0 {
		return fmt.Errorf("colstore: unknown scan node %T", n)
	}
	v.leaves++
	l, err := v.col(ord, kind)
	if err != nil {
		return err
	}
	var r *colSlot
	if q, ok := n.(*predicate.ScanCmpCols); ok {
		if r, err = v.col(q.Right, q.RightKind); err != nil {
			return err
		}
	}
	switch tri {
	case predicate.TriTrue:
		predicate.SetAll(out, v.nrows)
	case predicate.TriMaybe:
		if err := v.kernel(n, l, r, out); err != nil {
			return err
		}
	}
	if tri != predicate.TriMaybe {
		v.decided++
	}
	clearNullBits(l.pv.nulls, out)
	if r != nil {
		clearNullBits(r.pv.nulls, out)
	}
	return nil
}

// kernel runs an undecided leaf over its column slot (and a pair's right
// one, r).
func (v *visit) kernel(n predicate.ScanNode, s, r *colSlot, out []uint64) error {
	var err error
	switch q := n.(type) {
	case *predicate.ScanCmpInt:
		s.cmpInt(q.Op, q.Lit, v.nrows, out)
	case *predicate.ScanBand:
		err = s.band(q, v.nrows, out)
	case *predicate.ScanCmpFloat:
		predicate.MaskCompare(s.floatValues(), q.Op, q.Lit, out)
	case *predicate.ScanCmpStr:
		err = s.cmpStr(q.Op, q.Lit, v.nrows, out)
	case *predicate.ScanInInt:
		s.inInt(q, out, v.sc)
	case *predicate.ScanInStr:
		err = s.inStr(q, out, v.sc)
	case *predicate.ScanLike:
		err = s.like(q, out, v.sc)
	case *predicate.ScanCmpCols:
		return v.cmpCols(q, s, r, out)
	}
	if err != nil {
		_, ord, _ := leafOf(n)
		return v.t.pageErr(ord, err)
	}
	return nil
}

// pageErr names the column of ordinal ci in a page error.
func (t *TableScan) pageErr(ci int, err error) error {
	return fmt.Errorf("colstore: scan %s.%s: %w", t.table, t.schema.Column(ci).Name, err)
}

// cmpInt evaluates (col op lit) over an int page. Pages whose values
// order like their codes rebase lit into the packed unsigned domain —
// classifying it as below, inside, or above the page's value domain — and
// compare codes; other pages compare decoded values.
func (s *colSlot) cmpInt(op predicate.Op, lit int64, nrows int, out []uint64) {
	v := s.iv
	switch {
	case !v.packedDomain():
		predicate.MaskCompare(s.intValues(), op, lit, out)
	case lit < v.frame: // below the domain: only Ne/Gt/Ge can match
		if op == predicate.Ne || op == predicate.Gt || op == predicate.Ge {
			predicate.SetAll(out, nrows)
		}
	case uint64(lit)-uint64(v.frame) >= uint64(1)<<uint(v.width): // above: only Ne/Lt/Le
		if op == predicate.Ne || op == predicate.Lt || op == predicate.Le {
			predicate.SetAll(out, nrows)
		}
	default:
		codeBand(s.intCodes(), op, uint64(lit)-uint64(v.frame), out)
	}
}

// codeBand runs (code op c) over unsigned codes as one MaskBand: = and ≠
// are the band [c, c], ≤ and > are [0, c], < and ≥ are [c, max], and ≠, <
// and > take its complement.
func codeBand(codes []uint64, op predicate.Op, c uint64, out []uint64) {
	lo, hi := c, c
	switch op {
	case predicate.Le, predicate.Gt:
		lo = 0
	case predicate.Lt, predicate.Ge:
		hi = math.MaxUint64
	}
	predicate.MaskBand(codes, lo, hi, op == predicate.Ne || op == predicate.Lt || op == predicate.Gt, out)
}

// band evaluates lo ≤/< col ≤/< hi. Both bounds become one inclusive range
// of codes (or values), and each row costs one unsigned subtract and
// compare: c in [lo, hi] ⇔ c-lo ≤ hi-lo, wrapping. An int page rebases the
// range into its code domain, clamped to it; a dict page turns it into a
// code range by binary search over the sorted dictionary; a raw string
// page compares the bytes against both bounds.
func (s *colSlot) band(q *predicate.ScanBand, nrows int, out []uint64) error {
	if s.kind == value.KindString {
		return s.bandStr(q, out)
	}
	lo, hi, ok := q.Ints()
	v := s.iv
	switch {
	case !ok:
	case !v.packedDomain():
		predicate.MaskBand(s.intValues(), uint64(lo), uint64(hi), false, out)
	case hi >= v.frame:
		top := uint64(1)<<uint(v.width) - 1
		cl, ch := uint64(0), min(uint64(hi)-uint64(v.frame), top)
		if lo > v.frame {
			cl = uint64(lo) - uint64(v.frame)
		}
		switch {
		case cl > top:
		case cl == 0 && ch == top:
			predicate.SetAll(out, nrows)
		default:
			predicate.MaskBand(s.intCodes(), cl, ch, false, out)
		}
	}
	return nil
}

func (s *colSlot) bandStr(q *predicate.ScanBand, out []uint64) error {
	v, codes, err := s.strRows()
	if err != nil {
		return err
	}
	lo, hi := q.Lo.Str(), q.Hi.Str()
	if codes == nil {
		predicate.MaskRows(v.n, out, func(k int) bool {
			e := v.entry(k)
			lc, hc := bytesCompareString(e, lo), bytesCompareString(e, hi)
			return (lc > 0 || lc == 0 && q.LoInc) && (hc < 0 || hc == 0 && q.HiInc)
		})
		return nil
	}
	// The first entry above (or at, when inclusive) lo, and the first past
	// hi: codes in [cl, chx) are the band's.
	cl := sort.Search(v.nd, func(i int) bool { c := bytesCompareString(v.entry(i), lo); return c > 0 || c == 0 && q.LoInc })
	chx := sort.Search(v.nd, func(i int) bool { c := bytesCompareString(v.entry(i), hi); return c > 0 || c == 0 && !q.HiInc })
	if cl < chx {
		predicate.MaskBand(codes, uint64(cl), uint64(chx-1), false, out)
	}
	return nil
}

// cmpCols evaluates (left op right) over the two columns' slots: ints and
// floats as values, strings as byte ranges of the page bodies, compared
// row by row by the kernels FillMask runs over the base table.
func (v *visit) cmpCols(q *predicate.ScanCmpCols, l, r *colSlot, out []uint64) error {
	switch {
	case l.kind == value.KindFloat && r.kind == value.KindFloat:
		predicate.MaskCompareCols(l.floatValues(), r.floatValues(), q.Op, out)
	case l.kind == value.KindInt && r.kind == value.KindFloat:
		predicate.MaskCompareIntFloat(l.intValues(), r.floatValues(), q.Op, out)
	case l.kind == value.KindFloat:
		predicate.MaskCompareIntFloat(r.intValues(), l.floatValues(), q.Op.Mirror(), out)
	case l.kind == value.KindString:
		lv, lc, err := l.strRows()
		if err != nil {
			return v.t.pageErr(q.Left, err)
		}
		rv, rc, err := r.strRows()
		if err != nil {
			return v.t.pageErr(q.Right, err)
		}
		predicate.MaskRows(v.nrows, out, func(k int) bool { return q.Op.Apply(bytes.Compare(lv.row(lc, k), rv.row(rc, k))) })
	default:
		predicate.MaskCompareCols(l.intValues(), r.intValues(), q.Op, out)
	}
	return nil
}

// cmpStr evaluates (col op lit) over a string page. Dict pages
// translate lit into a code bound via binary search over the sorted
// dictionary — without materializing a single string — and compare raw
// codes; raw pages compare bytes in place.
func (s *colSlot) cmpStr(op predicate.Op, lit string, nrows int, out []uint64) error {
	v, codes, err := s.strRows()
	if err != nil {
		return err
	}
	if codes == nil {
		predicate.MaskRows(v.n, out, func(k int) bool { return op.Apply(bytesCompareString(v.entry(k), lit)) })
		return nil
	}
	lo := sort.Search(v.nd, func(i int) bool { return bytesCompareString(v.entry(i), lit) >= 0 })
	exists := lo < v.nd && bytesCompareString(v.entry(lo), lit) == 0
	hi := lo
	if exists {
		hi++
	}
	// Codes are ranks in the sorted dictionary, so value order is code
	// order: v < lit ⇔ code < lo, v <= lit ⇔ code < hi, and so on.
	switch op {
	case predicate.Eq, predicate.Ne:
		if !exists {
			if op == predicate.Ne {
				predicate.SetAll(out, nrows)
			}
			return nil
		}
	case predicate.Le:
		op, lo = predicate.Lt, hi
	case predicate.Gt:
		op, lo = predicate.Ge, hi
	}
	codeBand(codes, op, uint64(lo), out)
	return nil
}

// inInt evaluates col [NOT] IN over an int page. A packed page whose code
// domain holds no more words of bits than the page has rows turns the
// literals into a member set over its codes and probes codes, as inStr
// does over a dictionary; delta and raw pages probe the set per value.
func (s *colSlot) inInt(q *predicate.ScanInInt, out []uint64, sc *scratch) {
	v := s.iv
	if !v.packedDomain() || uint64(1)<<uint(v.width) > 64*uint64(v.n) {
		vals := s.intValues()
		predicate.MaskRows(len(vals), out, func(k int) bool { _, found := q.Set[vals[k]]; return found != q.Negate })
		return
	}
	member := sc.grabMember(1 << uint(v.width))
	for _, x := range q.Sorted {
		if c := uint64(x) - uint64(v.frame); x >= v.frame && c <= v.mask {
			member[c>>6] |= 1 << (c & 63)
		}
	}
	predicate.MaskMembers(s.intCodes(), member, q.Negate, out)
}

// inStr evaluates col [NOT] IN over a string page. Dict pages merge
// the sorted literal list against the sorted dictionary into a code
// membership bitset (both sides sorted — a single linear merge, no string
// materialization) and probe codes; raw pages probe the set per row.
func (s *colSlot) inStr(q *predicate.ScanInStr, out []uint64, sc *scratch) error {
	v, codes, err := s.strRows()
	if err != nil {
		return err
	}
	if codes == nil {
		predicate.MaskRows(v.n, out, func(k int) bool {
			_, found := q.Set[string(v.entry(k))] // no alloc: map lookup special case
			return found != q.Negate
		})
		return nil
	}
	member := sc.grabMember(v.nd)
	di := 0
	for _, lit := range q.Sorted {
		for di < v.nd && bytesCompareString(v.entry(di), lit) < 0 {
			di++
		}
		if di < v.nd && bytesCompareString(v.entry(di), lit) == 0 {
			member[di>>6] |= 1 << (uint(di) & 63)
		}
	}
	predicate.MaskMembers(codes, member, q.Negate, out)
	return nil
}

// like evaluates col [NOT] LIKE over a string page. Dict pages run the
// matcher once per dictionary entry — enumerating the matching codes into
// a bitset — then probe codes, so a block with d distinct values costs d
// matcher calls instead of n.
func (s *colSlot) like(q *predicate.ScanLike, out []uint64, sc *scratch) error {
	v, codes, err := s.strRows()
	if err != nil {
		return err
	}
	if codes == nil {
		predicate.MaskRows(v.n, out, func(k int) bool { return q.Match(v.entry(k)) != q.Negate })
		return nil
	}
	member := sc.grabMember(v.nd)
	for i := 0; i < v.nd; i++ {
		if q.Match(v.entry(i)) {
			member[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	predicate.MaskMembers(codes, member, q.Negate, out)
	return nil
}

// bytesCompareString is bytes.Compare against a string, avoiding the
// []byte(s) conversion.
func bytesCompareString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// clearNullBits clears null rows' bits straight off the raw page null
// bitmap: both bitmaps are little-endian by row, so eight null-mask bytes
// fold into one mask word.
func clearNullBits(nulls []byte, out []uint64) {
	if nulls == nil {
		return
	}
	nw := len(nulls) >> 3
	for w := 0; w < nw; w++ {
		out[w] &^= binary.LittleEndian.Uint64(nulls[w<<3:])
	}
	for bi := nw << 3; bi < len(nulls); bi++ {
		out[bi>>3] &^= uint64(nulls[bi]) << ((bi & 7) * 8)
	}
}

// isEmpty reports whether no bit of mask is set.
func isEmpty(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// isFull reports whether bits [0, n) of mask are all set.
func isFull(mask []uint64, n int) bool {
	for w := 0; w < n>>6; w++ {
		if mask[w] != ^uint64(0) {
			return false
		}
	}
	return n&63 == 0 || mask[n>>6] == 1<<uint(n&63)-1
}
